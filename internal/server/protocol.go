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
	"fmt"
	"math"
	"strconv"
	"strings"

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
// edge samples NaN, so every ParseFieldSpec arm checks its numbers here:
// such an INSERT fails before it takes a sequence number or a WAL record.
func finite(v float64, tok, spec string) error {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("server: non-finite number %q in field %q", tok, spec)
	}
	return nil
}

// ParseFieldSpec parses one INSERT field. Every number in it must be finite.
func ParseFieldSpec(spec string) (randvar.Field, error) {
	switch {
	case strings.HasPrefix(spec, "J{"):
		// JSON numbers are finite by construction.
		return codec.DecodeField([]byte(spec[1:]))
	case strings.HasPrefix(spec, "N(") && strings.HasSuffix(spec, ")"):
		body := spec[2 : len(spec)-1]
		parts := strings.Split(body, ",")
		if len(parts) != 3 {
			return randvar.Field{}, fmt.Errorf("server: N() takes (mu,sigma2,n), got %q", spec)
		}
		mu, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return randvar.Field{}, fmt.Errorf("server: bad mu in %q: %w", spec, err)
		}
		if err := finite(mu, parts[0], spec); err != nil {
			return randvar.Field{}, err
		}
		sigma2, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return randvar.Field{}, fmt.Errorf("server: bad sigma2 in %q: %w", spec, err)
		}
		if err := finite(sigma2, parts[1], spec); err != nil {
			return randvar.Field{}, err
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			return randvar.Field{}, fmt.Errorf("server: bad n in %q", spec)
		}
		nd, err := dist.NewNormal(mu, sigma2)
		if err != nil {
			return randvar.Field{}, err
		}
		return randvar.Field{Dist: nd, N: n}, nil
	case strings.HasPrefix(spec, "S(") && strings.HasSuffix(spec, ")"):
		body := spec[2 : len(spec)-1]
		parts := strings.Split(body, ";")
		obs := make([]float64, 0, len(parts))
		for _, p := range parts {
			if p == "" {
				continue
			}
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return randvar.Field{}, fmt.Errorf("server: bad observation %q in %q", p, spec)
			}
			if err := finite(v, p, spec); err != nil {
				return randvar.Field{}, err
			}
			obs = append(obs, v)
		}
		if len(obs) < 2 {
			return randvar.Field{}, fmt.Errorf("server: S() needs ≥ 2 observations, got %d", len(obs))
		}
		return core.LearnField(learn.GaussianLearner{}, learn.NewSample(obs))
	case strings.HasPrefix(spec, "H(") && strings.HasSuffix(spec, ")"):
		body := spec[2 : len(spec)-1]
		halves := strings.SplitN(body, "|", 2)
		if len(halves) != 2 {
			return randvar.Field{}, fmt.Errorf("server: H() takes edges|counts, got %q", spec)
		}
		edgeStrs := strings.Split(halves[0], ",")
		countStrs := strings.Split(halves[1], ",")
		edges := make([]float64, 0, len(edgeStrs))
		for _, s := range edgeStrs {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return randvar.Field{}, fmt.Errorf("server: bad edge %q in %q", s, spec)
			}
			if err := finite(v, s, spec); err != nil {
				return randvar.Field{}, err
			}
			edges = append(edges, v)
		}
		counts := make([]int, 0, len(countStrs))
		total := 0
		for _, s := range countStrs {
			v, err := strconv.Atoi(s)
			if err != nil {
				return randvar.Field{}, fmt.Errorf("server: bad count %q in %q", s, spec)
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
