package server

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
	"repro/internal/wal"
)

// renderTestResults builds Results covering every branch of the wire
// encoding: sorted multi-column field maps, Point/Normal/Histogram
// distributions, accuracy intervals and bins, prob_n, prob_interval,
// unsure, and time.
func renderTestResults(t testing.TB) []core.Result {
	t.Helper()
	schema, err := stream.NewSchema("s",
		stream.Column{Name: "zeta"},
		stream.Column{Name: "alpha", Probabilistic: true},
		stream.Column{Name: "mid", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := dist.NewNormal(3.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := dist.HistogramFromCounts([]float64{0, 1.5, 3, 4.5}, []int{4, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := dist.NewNormal(3.5e-7, 2.5e21)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fields []randvar.Field, prob float64, probN int, seq uint64, tm int64) *stream.Tuple {
		tp, err := stream.NewTuple(schema, fields)
		if err != nil {
			t.Fatal(err)
		}
		tp.Prob, tp.ProbN, tp.Seq, tp.Time = prob, probN, seq, tm
		return tp
	}
	plain := mk([]randvar.Field{
		randvar.Det(1), {Dist: nd, N: 25}, {Dist: dist.Point{V: -2.5}, N: 3},
	}, 1, 0, 7, 0)
	decorated := mk([]randvar.Field{
		randvar.Det(0), {Dist: hist, N: 13}, {Dist: tiny, N: 4},
	}, 0.625, 9, 123456, 1_700_000_321)
	return []core.Result{
		{Tuple: plain},
		{
			Tuple: decorated,
			Fields: map[string]*accuracy.Info{
				"alpha": {
					N:        13,
					Level:    0.9,
					Mean:     accuracy.Interval{Lo: 1.25, Hi: 2.75, Level: 0.9},
					Variance: accuracy.Interval{Lo: 0.5, Hi: 1.5, Level: 0.9},
					Bins: []accuracy.BinInterval{
						{Bucket: 0, Lo: 0, Hi: 1.5, Estimate: 0.25,
							Interval: accuracy.Interval{Lo: 0.1, Hi: 0.4, Level: 0.9}},
						{Bucket: 1, Lo: 1.5, Hi: 3, Estimate: 0.75,
							Interval: accuracy.Interval{Lo: 0.6, Hi: 0.9, Level: 0.9}},
					},
				},
				"mid": {
					N:        4,
					Level:    0.9,
					Mean:     accuracy.Interval{Lo: -1e-7, Hi: 9.999e-7, Level: 0.9},
					Variance: accuracy.Interval{Lo: 1e21, Hi: 3e21, Level: 0.9},
				},
			},
			TupleProb: &accuracy.Interval{Lo: 0.5, Hi: 0.75, Level: 0.9},
			Unsure:    true,
		},
	}
}

// appendDataLine is the per-line reference renderer the serving path's
// shared-body frames are compared against: "DATA <id> <json>", no newline,
// rendered from r alone.
func appendDataLine(dst []byte, id string, r core.Result) ([]byte, error) {
	return appendResult(append(append(append(dst, "DATA "...), id...), ' '), r)
}

// renderEdgeValues are the numbers at the edges of the renderer's one-format
// rule and of JSON's exponent switch: 0 and -0, both neighbours of 1e-4,
// 1e6, 1e-6 and 1e21, subnormals, and the negatives of all.
func renderEdgeValues() []float64 {
	var vs []float64
	for _, b := range []float64{1e-4, 1e6, 1e-6, 1e21} {
		vs = append(vs, math.Nextafter(b, 0), b, math.Nextafter(b, math.Inf(1)))
	}
	vs = append(vs, 0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 0.1, 1.0/3, 123456.789, 999999.5, 1e300)
	for _, v := range vs {
		vs = append(vs, -v)
	}
	return vs
}

// renderEdgeResults builds one result per edge value: a Point field of that
// value, and two decorated Normal fields with it as mean and as variance,
// their intervals cycling through several levels (0 and -0 among them) so
// one body repeats some levels and changes others.
func renderEdgeResults(t testing.TB) []core.Result {
	t.Helper()
	schema, err := stream.NewSchema("edge",
		stream.Column{Name: "p"},
		stream.Column{Name: "n", Probabilistic: true},
		stream.Column{Name: "m", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	vs := renderEdgeValues()
	levels := []float64{0.9, 0.95, 0.9, 0, math.Copysign(0, -1), 0.99, 1e-7, 0.9}
	iv := func(k int) accuracy.Interval {
		return accuracy.Interval{Lo: vs[k%len(vs)], Hi: vs[(k+3)%len(vs)], Level: levels[k%len(levels)]}
	}
	var out []core.Result
	for i, v := range vs {
		other := vs[(i*7+5)%len(vs)]
		tp, err := stream.NewTuple(schema, []randvar.Field{
			{Dist: dist.Point{V: v}, N: i % 3},
			{Dist: dist.Normal{Mu: v, Sigma2: math.Abs(other)}, N: 2 + i},
			{Dist: dist.Normal{Mu: other, Sigma2: math.Abs(v)}, N: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		tp.Prob, tp.ProbN, tp.Seq = 0.5, 7, uint64(i+1)
		tpIv := iv(i + 3)
		out = append(out, core.Result{
			Tuple: tp,
			Fields: map[string]*accuracy.Info{
				"n": {Mean: iv(i), Variance: iv(i + 1)},
				"m": {Mean: iv(i + 2), Variance: iv(i), WindowMedian: &accuracy.Interval{Lo: v, Hi: other, Level: levels[(i+5)%len(levels)]}},
			},
			TupleProb: &tpIv,
		})
	}
	return out
}

// TestRenderMatchesJSON pins the render-once path to the legacy encoder:
// appendResult must be byte-identical to json.Marshal(EncodeResult(r)),
// for the test results and at the edges of the one-format rule.
func TestRenderMatchesJSON(t *testing.T) {
	for i, r := range append(renderTestResults(t), renderEdgeResults(t)...) {
		want, err := json.Marshal(EncodeResult(r))
		if err != nil {
			t.Fatalf("result %d: marshal: %v", i, err)
		}
		got, err := appendResult(nil, r)
		if err != nil {
			t.Fatalf("result %d: appendResult: %v", i, err)
		}
		if string(got) != string(want) {
			t.Errorf("result %d:\nappend: %s\n  json: %s", i, got, want)
		}
		line, err := appendDataLine(nil, "q1", r)
		if err != nil {
			t.Fatal(err)
		}
		if wantLine := "DATA q1 " + string(want); string(line) != wantLine {
			t.Errorf("result %d line:\nappend: %s\n  want: %s", i, line, wantLine)
		}
		e := renderBody(r)
		if e.err != nil {
			t.Fatal(e.err)
		}
		rc := &recConn{}
		c := &conn{c: rc}
		c.lockWrite()
		if err := c.stageData("q1", e.body.buf); err != nil {
			t.Fatal(err)
		}
		c.unlockWrite()
		e.body.release()
		if wire, wantWire := rc.take(), "DATA q1 "+string(want)+"\n"; len(wire) != 1 || string(wire[0]) != wantWire {
			t.Errorf("result %d wire line:\nappend: %q\n  want: %q", i, wire, wantWire)
		}
	}
}

// TestRenderNonFiniteError: a number that is not finite fails the render
// with json.Marshal's error text, wherever in the body it sits.
func TestRenderNonFiniteError(t *testing.T) {
	base := renderEdgeResults(t)[1]
	for _, c := range []struct {
		name string
		edit func(r *core.Result)
	}{
		{"point", func(r *core.Result) { r.Tuple.Fields[0].Dist = dist.Point{V: math.Inf(1)} }},
		{"mean", func(r *core.Result) { r.Tuple.Fields[1].Dist = dist.Normal{Mu: math.NaN(), Sigma2: 1} }},
		{"variance", func(r *core.Result) { r.Tuple.Fields[2].Dist = dist.Normal{Mu: 1, Sigma2: math.Inf(1)} }},
		{"level", func(r *core.Result) { r.Fields["m"].Variance.Level = math.NaN() }},
		{"repeated level", func(r *core.Result) { r.TupleProb.Level = math.Inf(-1) }},
		{"bound", func(r *core.Result) { r.Fields["n"].Mean.Lo = math.Inf(-1) }},
	} {
		tp := *base.Tuple
		tp.Fields = slices.Clone(base.Tuple.Fields)
		n, m, tpIv := *base.Fields["n"], *base.Fields["m"], *base.TupleProb
		r := core.Result{Tuple: &tp, Fields: map[string]*accuracy.Info{"n": &n, "m": &m}, TupleProb: &tpIv}
		c.edit(&r)
		_, want := json.Marshal(EncodeResult(r))
		_, err := appendResult(nil, r)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: appendResult error %v, json.Marshal %v", c.name, err, want)
		}
	}
}

// BenchmarkRenderBody renders one wire-small-shaped DATA body per op: a
// window AVG as a decorated Normal field, through renderBody into a pooled
// frame.
func BenchmarkRenderBody(b *testing.B) {
	schema, err := stream.NewSchema("s", stream.Column{Name: "a", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	tp, err := stream.NewTuple(schema, []randvar.Field{{Dist: dist.Normal{Mu: 61.73203125, Sigma2: 0.0869140625}, N: 256}})
	if err != nil {
		b.Fatal(err)
	}
	tp.Seq = 123456
	r := core.Result{Tuple: tp, Fields: map[string]*accuracy.Info{"a": {
		Mean:     accuracy.Interval{Lo: 60.91578, Hi: 62.54828, Level: 0.9},
		Variance: accuracy.Interval{Lo: 0.07540, Hi: 0.10141, Level: 0.9},
	}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := renderBody(r)
		if e.err != nil {
			b.Fatal(e.err)
		}
		e.body.release()
	}
}

// TestRenderZeroAlloc pins the steady-state push path at zero allocations
// per DATA line: rendering a body into a frame and staging it behind its
// prefix into a write batch.
func TestRenderZeroAlloc(t *testing.T) {
	r := renderTestResults(t)[0]
	f := newFrame()
	defer f.release()
	c := &conn{c: &recConn{discard: true}}
	c.lockWrite()
	defer c.unlockWrite()
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if f.buf, err = appendResult(f.buf[:0], r); err != nil {
			t.Fatal(err)
		}
		f.buf = append(f.buf, '\n')
		c.wb.b = c.wb.b[:0]
		if err := c.stageData("q1", f.buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("render and stage allocate %v times per line, want 0", allocs)
	}
}

// TestIngestReplyFormat pins the strconv reply builder to the fmt strings
// it replaced — WAL replay reproduces these bytes to rebuild dedup state.
func TestIngestReplyFormat(t *testing.T) {
	for _, c := range []struct{ tuples, emitted int }{{0, 0}, {1, 3}, {250, 12345}} {
		if got, want := ingestReply(true, c.tuples, c.emitted, nil),
			fmt.Sprintf("OK inserted tuples=%d results=%d", c.tuples, c.emitted); got != want {
			t.Errorf("batch reply = %q, want %q", got, want)
		}
		if got, want := ingestReply(false, c.tuples, c.emitted, nil),
			fmt.Sprintf("OK inserted results=%d", c.emitted); got != want {
			t.Errorf("reply = %q, want %q", got, want)
		}
	}
	if got := ingestReply(false, 0, 0, fmt.Errorf("query q1: boom")); got != "ERR query q1: boom" {
		t.Errorf("error reply = %q", got)
	}
}

// TestFrameRefcount exercises the pool discipline: a body shared by n
// references survives n-1 releases and recycles on the last. Its subtests
// follow planned bodies down every delivery path and check that each
// returns to the pool exactly once (its count ends at zero, not below).
// Lines queued on an outbox keep their bodies observable after the command.
func TestFrameRefcount(t *testing.T) {
	f := newFrame()
	f.buf = append(f.buf, "{}\n"...)
	f.refs.Store(3)
	f.release()
	f.release()
	if string(f.buf) != "{}\n" {
		t.Fatal("frame mutated while references remain")
	}
	f.release() // last reference; frame returns to the pool
	g := newFrame()
	g.buf = append(g.buf, 'x')
	g.release()
	// Oversized frames are dropped, not pooled.
	h := newFrame()
	h.buf = append(h.buf, make([]byte, maxPooledFrame+1)...)
	h.release()

	const batch = "s 5 N(10,4,25) | 6 N(11,4,25) | 7 N(12,4,25) | 8 N(13,4,25)"
	analytical := core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1}
	// fleet is a shared group of three owned by from; q001 is also
	// subscribed from sub (outbox of outboxCap lines) and q002 from sub2
	// (outbox of 8 lines), neither with a drainer running.
	fleet := func(t *testing.T, s *Server, outboxCap int) (from, sub, sub2 *conn) {
		from = &conn{id: 1, c: &recConn{}}
		sub = &conn{id: 2, c: &recConn{}, outbox: make(chan dataLine, outboxCap)}
		sub2 = &conn{id: 3, c: &recConn{discard: true}, outbox: make(chan dataLine, 8)}
		sharedFleet(t, s, from, 3)
		mustDispatch(t, s, sub, "SUBSCRIBE q001")
		mustDispatch(t, s, sub2, "SUBSCRIBE q002")
		from.c.(*recConn).take()
		sub.c.(*recConn).take()
		return from, sub, sub2
	}
	// drainQueued releases every line still queued on c's outbox.
	drainQueued := func(c *conn) {
		for len(c.outbox) > 0 {
			(<-c.outbox).body.release()
		}
	}

	t.Run("inserting connection and outbox", func(t *testing.T) {
		s := newTestServer(t, analytical)
		from, sub, sub2 := fleet(t, s, 8)
		bodies := planBatch(t, s, from, batch)
		if len(bodies) != 4 {
			t.Fatalf("planned %d bodies, want one per emission (4)", len(bodies))
		}
		assertRefs(t, bodies, 3) // the command, sub's line, sub2's line
		if err := s.sendDeliveries(from, &from.scratch, "OK"); err != nil {
			t.Fatal(err)
		}
		if w := from.c.(*recConn).take(); len(w) != 1 || strings.Count(string(w[0]), "\n") != 13 {
			t.Fatalf("inserting connection got %q, want 12 DATA lines and the reply in one write", w)
		}
		assertRefs(t, bodies, 2) // sub's and sub2's queued lines
		sub.drainOutbox(<-sub.outbox)
		assertRefs(t, bodies, 1)
		sub2.drainOutbox(<-sub2.outbox)
		assertReleasedOnce(t, bodies)
		if w := sub.c.(*recConn).take(); len(w) != 1 || strings.Count(string(w[0]), "DATA q001 ") != 4 {
			t.Errorf("subscriber got %q, want its 4 lines in one write", w)
		}
	})
	t.Run("outbox overflow", func(t *testing.T) {
		s := newTestServer(t, analytical)
		from, sub, sub2 := fleet(t, s, 2)
		bodies := planBatch(t, s, from, batch)
		if err := s.sendDeliveries(from, &from.scratch, "OK"); err != nil {
			t.Fatal(err)
		}
		if !sub.dead.Load() || sub2.dead.Load() {
			t.Fatalf("dead: sub %v, sub2 %v; want only the overflowing sub", sub.dead.Load(), sub2.dead.Load())
		}
		assertRefs(t, bodies[:2], 2) // queued for sub and sub2
		assertRefs(t, bodies[2:], 1) // dropped for sub, queued for sub2
		drainQueued(sub)
		drainQueued(sub2)
		assertReleasedOnce(t, bodies)
	})
	t.Run("dropDeliveries after a failed durability wait", func(t *testing.T) {
		s := newTestServer(t, analytical)
		from, sub, _ := fleet(t, s, 8)
		bodies := planBatch(t, s, from, batch)
		dropDeliveries(from, &from.scratch)
		assertReleasedOnce(t, bodies)
		if len(sub.outbox) != 0 || len(from.c.(*recConn).take()) != 0 {
			t.Error("dropped deliveries were written or queued")
		}
	})
	t.Run("checkpoint-split send", func(t *testing.T) {
		cfg := durableConfig(t.TempDir(), 1, 6)
		cfg.Method = core.AccuracyAnalytical
		s := newTestServer(t, cfg)
		defer s.Close()
		from, sub, sub2 := fleet(t, s, 8)              // records 1-5
		mustDispatch(t, s, from, "INSERTBATCH "+batch) // record 6: checkpoint due
		if w := from.c.(*recConn).take(); len(w) != 2 || s.sinceCk.Load() != 0 {
			t.Fatalf("%d writes (want DATA, then the reply) and sinceCk=%d (want 0)", len(w), s.sinceCk.Load())
		}
		drainQueued(sub2)
		var bodies []*frame
		for len(sub.outbox) > 0 {
			l := <-sub.outbox
			bodies = append(bodies, l.body)
			if refs := l.body.refs.Load(); refs != 1 {
				t.Errorf("queued body refcount %d after the command, want 1 (the command's reference dropped)", refs)
			}
			l.body.release()
		}
		if len(bodies) != 4 {
			t.Fatalf("subscriber queued %d lines, want 4", len(bodies))
		}
		assertReleasedOnce(t, bodies)
	})
	t.Run("replica apply", func(t *testing.T) {
		s := newTestServer(t, analytical)
		records := []string{"s key v:dist"}
		for _, id := range []string{"q000", "q001", "q002"} {
			records = append(records, id+" SELECT AVG(v) AS a FROM s WINDOW 4 ROWS")
		}
		for i, p := range records {
			typ := wal.RecQuery
			if i == 0 {
				typ = wal.RecStream
			}
			if err := s.ApplyReplicated(wal.Record{LSN: uint64(i + 1), Type: typ, Payload: []byte(p)}); err != nil {
				t.Fatal(err)
			}
		}
		subs := []*conn{
			{id: 1, c: &recConn{}, outbox: make(chan dataLine, 8)},
			{id: 2, c: &recConn{}, outbox: make(chan dataLine, 8)},
		}
		mustDispatch(t, s, subs[0], "SUBSCRIBE q001")
		mustDispatch(t, s, subs[1], "SUBSCRIBE q002")
		rec := wal.Record{LSN: 5, Type: wal.RecInsertBatch, Payload: []byte("s 1 N(10,4,25) | 2 N(11,4,25) | " + batch[len("s "):])}
		if err := s.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		var bodies []*frame
		for _, c := range subs {
			for n := len(c.outbox); n > 0; n-- {
				l := <-c.outbox
				if !slices.Contains(bodies, l.body) {
					bodies = append(bodies, l.body)
				}
				c.outbox <- l // back in queue order
			}
		}
		if len(bodies) != 3 {
			t.Fatalf("%d bodies queued, want one per emission (3), shared by both subscribers", len(bodies))
		}
		assertRefs(t, bodies, 2)
		subs[0].drainOutbox(<-subs[0].outbox)
		assertRefs(t, bodies, 1)
		subs[1].drainOutbox(<-subs[1].outbox)
		assertReleasedOnce(t, bodies)
	})
}
