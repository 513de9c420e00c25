package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

// The twin is an in-process pipeline assembled from the server's exported
// functions — server.ParseFieldSpec → core.Engine.IngestBatch →
// codec.AppendField — on an engine with asdbd's configuration. Fed the
// request lines the server was sent, in the same order, it is the oracle
// for the reference check, and its stage timers are the traced run's
// per-layer spans: asdbd itself carries no instrumentation for this
// benchmark.
type twin struct {
	wl    *workload
	eng   *core.Engine
	owner map[string]int // query id → connection that receives its DATA lines

	// log is non-nil on a traced durable run: the twin then journals like
	// the server does, AppendAsync inside the commit hook and WaitDurable
	// after the batch.
	log *wal.Log

	// Reference check state: per connection, the ordinal of the next result
	// and the next unchecked sample.
	conns    []*conn
	ordinal  []int64
	cursor   []int
	checked  int
	mismatch int
	details  []string // first few mismatches

	scratch []byte
}

// stageTimes is what one replayed request spent in each twin stage, ns.
type stageTimes struct {
	parse, ingest, walAppend, walWait, render int64
	tuples, fields                            int
}

func newTwin(wl *workload, conns []*conn) (*twin, error) {
	eng, err := core.NewEngine(core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1, Workers: 2})
	if err != nil {
		return nil, err
	}
	tw := &twin{wl: wl, eng: eng, owner: map[string]int{}, conns: conns,
		ordinal: make([]int64, len(conns)), cursor: make([]int, len(conns))}
	for _, def := range wl.streams {
		f := strings.Fields(def)
		schema, err := server.ParseStreamDef(f[0], f[1:])
		if err != nil {
			return nil, err
		}
		if err := eng.RegisterStream(schema); err != nil {
			return nil, err
		}
	}
	for _, q := range wl.queries {
		cq, err := eng.Compile(q.sql)
		if err != nil {
			return nil, err
		}
		if err := eng.Bind(q.id, cq); err != nil {
			return nil, err
		}
		tw.owner[q.id] = q.conn
	}
	return tw, nil
}

// splitRequest takes one INSERT/INSERTBATCH line apart the way the server
// does: the verb, the rest of the line (what the server journals, @reqid
// included) and the payload without the @reqid token.
func splitRequest(line []byte) (verb, rest, payload string) {
	verb, rest, _ = strings.Cut(strings.TrimSpace(string(line)), " ")
	payload = rest
	if i := strings.LastIndex(rest, " @"); i >= 0 {
		payload = rest[:i]
	}
	return verb, rest, payload
}

// replay runs one request line through the twin and checks the results
// against the sampled DATA lines.
func (tw *twin) replay(line []byte) (stageTimes, error) {
	var st stageTimes
	verb, rest, payload := splitRequest(line)

	t0 := time.Now()
	tokens := strings.Fields(payload)
	streamName := tokens[0]
	var rows []core.IngestRow
	cur := core.IngestRow{}
	for _, tok := range tokens[1:] {
		if tok == "|" {
			rows = append(rows, cur)
			cur = core.IngestRow{}
			continue
		}
		f, err := server.ParseFieldSpec(tok)
		if err != nil {
			return st, err
		}
		cur.Fields = append(cur.Fields, f)
	}
	rows = append(rows, cur)
	st.parse = int64(time.Since(t0))
	st.tuples = len(rows)

	var commit func() error
	var lsn uint64
	if tw.log != nil {
		typ := wal.RecInsert
		if verb == "INSERTBATCH" {
			typ = wal.RecInsertBatch
		}
		commit = func() error {
			a0 := time.Now()
			var err error
			lsn, err = tw.log.AppendAsync(typ, []byte(rest))
			st.walAppend = int64(time.Since(a0))
			return err
		}
	}
	t0 = time.Now()
	results, err := tw.eng.IngestBatch(streamName, rows, commit)
	st.ingest = int64(time.Since(t0))
	if err != nil {
		return st, err
	}
	if tw.log != nil {
		t0 = time.Now()
		if err := tw.log.WaitDurable(lsn); err != nil {
			return st, err
		}
		st.walWait = int64(time.Since(t0))
	}

	t0 = time.Now()
	for _, qr := range results {
		if qr.Err != nil {
			return st, fmt.Errorf("twin: query %s: %w", qr.ID, qr.Err)
		}
		for _, r := range qr.Results {
			for _, f := range r.Tuple.Fields {
				if tw.scratch, err = codec.AppendField(tw.scratch[:0], f); err != nil {
					return st, err
				}
				st.fields++
			}
		}
	}
	st.render = int64(time.Since(t0))

	for _, qr := range results {
		ci := tw.owner[qr.ID]
		for _, r := range qr.Results {
			tw.check(ci, qr.ID, r)
			tw.ordinal[ci]++
		}
	}
	return st, nil
}

// check compares result r, the next on connection ci, with the DATA line
// sampled at that ordinal, if there is one.
func (tw *twin) check(ci int, id string, r core.Result) {
	c := tw.conns[ci]
	k := tw.cursor[ci]
	if k >= len(c.samples) || c.samples[k].ordinal != tw.ordinal[ci] {
		return
	}
	tw.cursor[ci]++
	tw.checked++
	if err := tw.compare(c.samples[k].line, id, r); err != nil {
		tw.mismatch++
		if len(tw.details) < 5 {
			tw.details = append(tw.details, fmt.Sprintf("conn %d DATA #%d: %v", ci, tw.ordinal[ci], err))
		}
	}
}

// compare decodes one DATA line and requires every field — seq, mean,
// variance, n, distribution and every interval endpoint — to equal
// server.EncodeResult of the twin's result, floats compared exactly.
func (tw *twin) compare(line []byte, id string, r core.Result) error {
	rest, ok := bytes.CutPrefix(line, []byte("DATA "+id+" "))
	if !ok {
		return fmt.Errorf("line is not DATA %s: %.60s", id, line)
	}
	var got server.ResultJSON
	if err := json.Unmarshal(rest, &got); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	want := server.EncodeResult(r)
	if len(tw.wl.writers) > 1 {
		// Sequence numbers are engine-global: with two writers they depend
		// on how the two streams interleaved, which the twin cannot know.
		got.Seq, want.Seq = 0, 0
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Errorf("got %s want %s", g, w)
	}
	return nil
}

// finish reports what the reference check found once every request was
// replayed: line counts must match the twin's result counts exactly.
func (tw *twin) finish() error {
	var msgs []string
	for ci, c := range tw.conns {
		if c.dataLines != tw.ordinal[ci] {
			msgs = append(msgs, fmt.Sprintf("conn %d: %d DATA lines, reference produced %d", ci, c.dataLines, tw.ordinal[ci]))
		}
	}
	if tw.mismatch > 0 {
		msgs = append(msgs, fmt.Sprintf("%d of %d checked DATA lines differ from the reference", tw.mismatch, tw.checked))
		msgs = append(msgs, tw.details...)
	}
	if len(msgs) > 0 {
		return errors.New(strings.Join(msgs, "\n"))
	}
	return nil
}

func (s *stageTimes) add(o stageTimes) {
	s.parse += o.parse
	s.ingest += o.ingest
	s.walAppend += o.walAppend
	s.walWait += o.walWait
	s.render += o.render
	s.tuples += o.tuples
	s.fields += o.fields
}
