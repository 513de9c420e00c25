// Package server exposes the accuracy-aware uncertain stream database over
// a TCP line protocol, plus a matching Go client. One server process hosts
// one Engine; any number of clients may register streams, compile
// continuous queries, and insert tuples. Query results are delivered
// asynchronously to the connection that registered the query as DATA lines.
//
// # Protocol
//
// Requests are single lines; fields are space-separated except the SQL
// text, which runs to the end of the line:
//
//	STREAM <name> <col>[:dist] ...      register a stream schema
//	QUERY  <id> <sql>                   compile a continuous query
//	INSERT <stream> <field> ...         push one tuple
//	INSERTBATCH <stream> <field> ... [| <field> ...]
//	                                    push several tuples atomically;
//	                                    "|" separates tuples. One engine
//	                                    batch, one WAL record, one fsync
//	STATS  <id>                         query counters
//	METRICS [<id>]                      process metrics, or one query's
//	                                    accuracy telemetry (JSON)
//	EXPLAIN <id> [TIMING]               compiled plan (quoted string); TIMING
//	                                    adds per-stage counters (node-local)
//	CLOSE  <id>                         drop a query
//	ATTACH <id>                         claim delivery of a detached query
//	SUBSCRIBE <id>                      receive a query's DATA lines in
//	                                    addition to its owner; the rendered
//	                                    bytes are shared across recipients
//	PING                                liveness check
//	QUIT                                close the connection
//
// ATTACH exists for durability: after crash recovery the server rebuilds
// every checkpointed/journaled query, but the TCP connections that owned
// them are gone, so recovered queries are "detached" — they keep consuming
// inserts and updating state, with no DATA delivery. A client issues
// ATTACH <id> to become the delivery target. Attaching to a query owned by
// another live connection is an error. Attachment is transport state, not
// database state: it is never journaled and does not survive a restart.
//
// Field syntax for INSERT and INSERTBATCH:
//
//	12.5                 deterministic value
//	N(mu,sigma2,n)       Gaussian learned from n observations
//	S(v1;v2;...)         raw sample; the server learns a Gaussian (n = count)
//	H(e0,e1,...|c1,...)  histogram from bucket edges and raw counts
//	J{...}               any distribution as compact codec JSON (lossless)
//
// Every number in a field must be finite; Inf and NaN are refused.
//
// Responses are "OK[ payload]" or "ERR <message>". Asynchronous result
// lines have the form "DATA <queryID> <json>"; the JSON shape is
// server.ResultJSON.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/accuracy"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// finite refuses the infinities and NaN that strconv.ParseFloat accepts
// ("Inf", "+inf", "infinity", "NaN"). A field built from one cannot be
// rendered as JSON or encoded into a checkpoint, and an infinite histogram
// edge samples NaN, so every parseField arm checks its numbers here: such
// an INSERT fails before it takes a sequence number or a WAL record.
func finite(v float64, tok, spec string) error {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("server: non-finite number %q in field %q", tok, spec)
	}
	return nil
}

// ParseFieldSpec parses one INSERT field. Every number in it must be finite.
func ParseFieldSpec(spec string) (randvar.Field, error) {
	var p fieldParser
	return p.parseField(spec)
}

// fieldParser parses INSERT fields. Its sample is the S() observation slab,
// reused from field to field: learning copies nothing out of it, so the
// parsed field does not depend on it.
type fieldParser struct {
	sample learn.Sample
}

// parseField parses one INSERT field, the one parser ParseFieldSpec and
// insertBatch share. The lists inside N(), S() and H() are cut in place;
// what a distribution keeps (histogram edges and counts, a J{} decode) is
// freshly allocated.
func (p *fieldParser) parseField(spec string) (randvar.Field, error) {
	switch {
	case strings.HasPrefix(spec, "J{"):
		// JSON numbers are finite by construction.
		return codec.DecodeField([]byte(spec[1:]))
	case strings.HasPrefix(spec, "N(") && strings.HasSuffix(spec, ")"):
		body := spec[2 : len(spec)-1]
		if strings.Count(body, ",") != 2 {
			return randvar.Field{}, fmt.Errorf("server: N() takes (mu,sigma2,n), got %q", spec)
		}
		muTok, body, _ := strings.Cut(body, ",")
		sigmaTok, nTok, _ := strings.Cut(body, ",")
		mu, err := strconv.ParseFloat(muTok, 64)
		if err != nil {
			return randvar.Field{}, fmt.Errorf("server: bad mu in %q: %w", spec, err)
		}
		if err := finite(mu, muTok, spec); err != nil {
			return randvar.Field{}, err
		}
		sigma2, err := strconv.ParseFloat(sigmaTok, 64)
		if err != nil {
			return randvar.Field{}, fmt.Errorf("server: bad sigma2 in %q: %w", spec, err)
		}
		if err := finite(sigma2, sigmaTok, spec); err != nil {
			return randvar.Field{}, err
		}
		n, err := strconv.Atoi(nTok)
		if err != nil || n < 0 {
			return randvar.Field{}, fmt.Errorf("server: bad n in %q", spec)
		}
		nd, err := dist.NewNormal(mu, sigma2)
		if err != nil {
			return randvar.Field{}, err
		}
		return randvar.Field{Dist: nd, N: n}, nil
	case strings.HasPrefix(spec, "S(") && strings.HasSuffix(spec, ")"):
		p.sample.Reset()
		for rest, more := spec[2:len(spec)-1], true; more; {
			var tok string
			tok, rest, more = strings.Cut(rest, ";")
			if tok == "" {
				continue
			}
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return randvar.Field{}, fmt.Errorf("server: bad observation %q in %q", tok, spec)
			}
			if err := finite(v, tok, spec); err != nil {
				return randvar.Field{}, err
			}
			p.sample.Add(v)
		}
		if p.sample.Size() < 2 {
			return randvar.Field{}, fmt.Errorf("server: S() needs ≥ 2 observations, got %d", p.sample.Size())
		}
		// What core.LearnField does, through the concrete learner, so the
		// sample and the parser holding it do not escape to the heap.
		d, err := learn.GaussianLearner{}.Learn(&p.sample)
		if err != nil {
			return randvar.Field{}, err
		}
		return randvar.Field{Dist: d, N: p.sample.Size()}, nil
	case strings.HasPrefix(spec, "H(") && strings.HasSuffix(spec, ")"):
		edgeList, countList, ok := strings.Cut(spec[2:len(spec)-1], "|")
		if !ok {
			return randvar.Field{}, fmt.Errorf("server: H() takes edges|counts, got %q", spec)
		}
		edges := make([]float64, 0, strings.Count(edgeList, ",")+1)
		for rest, more := edgeList, true; more; {
			var tok string
			tok, rest, more = strings.Cut(rest, ",")
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return randvar.Field{}, fmt.Errorf("server: bad edge %q in %q", tok, spec)
			}
			if err := finite(v, tok, spec); err != nil {
				return randvar.Field{}, err
			}
			edges = append(edges, v)
		}
		counts := make([]int, 0, strings.Count(countList, ",")+1)
		total := 0
		for rest, more := countList, true; more; {
			var tok string
			tok, rest, more = strings.Cut(rest, ",")
			v, err := strconv.Atoi(tok)
			if err != nil {
				return randvar.Field{}, fmt.Errorf("server: bad count %q in %q", tok, spec)
			}
			counts = append(counts, v)
			total += v
		}
		h, err := dist.HistogramFromCounts(edges, counts)
		if err != nil {
			return randvar.Field{}, err
		}
		return randvar.Field{Dist: h, N: total}, nil
	default:
		v, err := strconv.ParseFloat(spec, 64)
		if err != nil {
			return randvar.Field{}, fmt.Errorf("server: unrecognized field %q", spec)
		}
		if err := finite(v, spec, spec); err != nil {
			return randvar.Field{}, err
		}
		return randvar.Det(v), nil
	}
}

// insertBatch is an INSERT or INSERTBATCH payload parsed into storage that
// one command scratch reuses from command to command: one row slice, one
// field slab the rows are windows of, and the S() observation slab. The
// rows are valid until the next parse or release; IngestBatch copies every
// field it keeps, so the batch is free again once IngestBatch returns.
type insertBatch struct {
	rows   []core.IngestRow
	fields []randvar.Field
	ends   []int // rows[i].Fields is fields[ends[i-1]:ends[i]]
	fieldParser
}

// maxKeptFields caps the field slab a batch keeps between commands, so one
// huge INSERTBATCH does not pin its slab for the life of the connection.
const maxKeptFields = 4096

// parse parses an ingest payload into b and returns its stream name:
// "<stream> <field> ..." for a single tuple, or — with batch set —
// "<stream> <field> ... | <field> ..." where "|" separates tuples. Tokens
// split exactly where strings.Fields splits; field specs never contain
// spaces or bare "|", so the framing is unambiguous.
func (b *insertBatch) parse(rest string, batch bool) (string, error) {
	b.release()
	streamName, rest := cutField(rest)
	tok, rest := cutField(rest)
	if tok == "" {
		if batch {
			return "", errors.New("usage: INSERTBATCH <stream> <field> ... [| <field> ...]")
		}
		return "", errors.New("usage: INSERT <stream> <field> ...")
	}
	start := 0
	for ; tok != ""; tok, rest = cutField(rest) {
		if batch && tok == "|" {
			if len(b.fields) == start {
				return "", errors.New("empty tuple in batch")
			}
			start = len(b.fields)
			b.ends = append(b.ends, start)
			continue
		}
		f, err := b.parseField(tok)
		if err != nil {
			return "", err
		}
		b.fields = append(b.fields, f)
	}
	if len(b.fields) == start {
		return "", errors.New("empty tuple in batch")
	}
	b.ends = append(b.ends, len(b.fields))
	start = 0
	for _, end := range b.ends {
		b.rows = append(b.rows, core.IngestRow{Fields: b.fields[start:end:end]})
		start = end
	}
	return streamName, nil
}

// release empties b and drops the distributions its slab points to.
func (b *insertBatch) release() {
	clear(b.fields)
	clear(b.rows)
	if cap(b.fields) > maxKeptFields {
		b.fields, b.rows, b.ends = nil, nil, nil
	}
	b.fields, b.rows, b.ends = b.fields[:0], b.rows[:0], b.ends[:0]
}

// asciiSpace marks the bytes below utf8.RuneSelf that strings.Fields
// splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// cutField returns the first token of s as strings.Fields splits it (on
// unicode.IsSpace; an invalid UTF-8 byte is not a space) and what follows
// it; tok is "" when s holds no token.
func cutField(s string) (tok, rest string) {
	i := 0
	for i < len(s) {
		n, space := runeAt(s, i)
		if !space {
			break
		}
		i += n
	}
	j := i
	for j < len(s) {
		n, space := runeAt(s, j)
		if space {
			break
		}
		j += n
	}
	return s[i:j], s[j:]
}

// runeAt returns the byte length of the rune at s[i] and whether it is a
// space.
func runeAt(s string, i int) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, asciiSpace[c]
	}
	r, n := utf8.DecodeRuneInString(s[i:])
	return n, unicode.IsSpace(r)
}

// FormatFieldSpec renders a field in the protocol's INSERT syntax (inverse
// of ParseFieldSpec for the supported kinds).
func FormatFieldSpec(f randvar.Field) string {
	switch d := f.Dist.(type) {
	case dist.Point:
		if f.N > 0 {
			// A point learned from n observations (e.g. a constant sample)
			// is not the same as an exact deterministic value: the bare
			// numeric form would re-parse with n = 0, so it travels as
			// codec JSON to keep the sample size.
			break
		}
		return strconv.FormatFloat(d.V, 'g', -1, 64)
	case dist.Normal:
		return fmt.Sprintf("N(%g,%g,%d)", d.Mu, d.Sigma2, f.N)
	case *dist.Histogram:
		if d.Counts == nil {
			// Without raw counts the H() syntax can't render the exact
			// probabilities; fall through to the lossless codec form.
			break
		}
		edges := make([]string, len(d.Edges))
		for i, e := range d.Edges {
			edges[i] = strconv.FormatFloat(e, 'g', -1, 64)
		}
		counts := make([]string, len(d.Counts))
		for i, c := range d.Counts {
			counts[i] = strconv.Itoa(c)
		}
		return fmt.Sprintf("H(%s|%s)", strings.Join(edges, ","), strings.Join(counts, ","))
	}
	// Arbitrary distributions (and histograms without raw counts) travel
	// losslessly as codec JSON (compact, so it stays a space-free token).
	if data, err := codec.EncodeField(f); err == nil {
		return "J" + string(data)
	}
	return fmt.Sprintf("N(%g,%g,%d)", f.Dist.Mean(), f.Dist.Variance(), f.N)
}

// IntervalJSON is a confidence interval in wire form.
type IntervalJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

func intervalJSON(iv accuracy.Interval) IntervalJSON {
	return IntervalJSON{Lo: iv.Lo, Hi: iv.Hi, Level: iv.Level}
}

// FieldJSON is one result field in wire form. Repr carries the full
// distribution in codec JSON so clients can reconstruct it losslessly;
// Dist remains the human-readable summary.
type FieldJSON struct {
	Mean     float64         `json:"mean"`
	Variance float64         `json:"variance"`
	N        int             `json:"n,omitempty"`
	Dist     string          `json:"dist"`
	Repr     json.RawMessage `json:"repr,omitempty"`
	MeanIv   *IntervalJSON   `json:"mean_interval,omitempty"`
	VarIv    *IntervalJSON   `json:"variance_interval,omitempty"`
	MedianIv *IntervalJSON   `json:"window_median,omitempty"`
	Bins     []BinJSON       `json:"bins,omitempty"`
}

// BinJSON is one histogram bucket's accuracy in wire form.
type BinJSON struct {
	Lo       float64      `json:"lo"`
	Hi       float64      `json:"hi"`
	Estimate float64      `json:"estimate"`
	Interval IntervalJSON `json:"interval"`
}

// ResultJSON is one query result in wire form.
type ResultJSON struct {
	Fields map[string]FieldJSON `json:"fields"`
	Prob   float64              `json:"prob"`
	ProbN  int                  `json:"prob_n,omitempty"`
	ProbIv *IntervalJSON        `json:"prob_interval,omitempty"`
	Unsure bool                 `json:"unsure,omitempty"`
	Seq    uint64               `json:"seq"`
	Time   int64                `json:"time,omitempty"`
}

// EncodeResult converts a core.Result into wire form.
func EncodeResult(r core.Result) ResultJSON {
	out := ResultJSON{
		Fields: make(map[string]FieldJSON, len(r.Tuple.Fields)),
		Prob:   r.Tuple.Prob,
		ProbN:  r.Tuple.ProbN,
		Unsure: r.Unsure,
		Seq:    r.Tuple.Seq,
		Time:   r.Tuple.Time,
	}
	for i, f := range r.Tuple.Fields {
		name := r.Tuple.Schema.Columns[i].Name
		fj := FieldJSON{
			Mean:     f.Dist.Mean(),
			Variance: f.Dist.Variance(),
			N:        f.N,
			Dist:     f.Dist.String(),
		}
		if repr, err := codec.EncodeDistribution(f.Dist); err == nil {
			fj.Repr = repr
		}
		if info := r.Fields[name]; info != nil {
			miv := intervalJSON(info.Mean)
			viv := intervalJSON(info.Variance)
			fj.MeanIv = &miv
			fj.VarIv = &viv
			if info.WindowMedian != nil {
				med := intervalJSON(*info.WindowMedian)
				fj.MedianIv = &med
			}
			for _, b := range info.Bins {
				fj.Bins = append(fj.Bins, BinJSON{
					Lo: b.Lo, Hi: b.Hi, Estimate: b.Estimate,
					Interval: intervalJSON(b.Interval),
				})
			}
		}
		out.Fields[name] = fj
	}
	if r.TupleProb != nil {
		iv := intervalJSON(*r.TupleProb)
		out.ProbIv = &iv
	}
	return out
}

// ParseStreamDef parses the STREAM command's column definitions.
func ParseStreamDef(name string, colSpecs []string) (*stream.Schema, error) {
	cols := make([]stream.Column, 0, len(colSpecs))
	for _, spec := range colSpecs {
		probabilistic := false
		colName := spec
		if idx := strings.IndexByte(spec, ':'); idx >= 0 {
			colName = spec[:idx]
			kind := strings.ToLower(spec[idx+1:])
			switch kind {
			case "dist", "prob":
				probabilistic = true
			case "det", "":
			default:
				return nil, fmt.Errorf("server: unknown column kind %q in %q", kind, spec)
			}
		}
		cols = append(cols, stream.Column{Name: colName, Probabilistic: probabilistic})
	}
	return stream.NewSchema(name, cols...)
}
