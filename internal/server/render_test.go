package server

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
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

// TestRenderMatchesJSON pins the render-once path to the legacy encoder:
// appendResult must be byte-identical to json.Marshal(EncodeResult(r)).
func TestRenderMatchesJSON(t *testing.T) {
	for i, r := range renderTestResults(t) {
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
		wire, err := appendDataFrame(nil, "q1", r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantWire := "DATA q1 " + string(want) + "\n"; string(wire) != wantWire {
			t.Errorf("result %d frame:\nappend: %q\n  want: %q", i, wire, wantWire)
		}
	}
}

// TestRenderZeroAlloc pins the steady-state push path at zero allocations
// per rendered DATA line (satellite 3's testing.AllocsPerRun gate).
func TestRenderZeroAlloc(t *testing.T) {
	r := renderTestResults(t)[0]
	f := newFrame()
	defer f.release()
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		f.buf, err = appendDataFrame(f.buf[:0], "q1", r, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("appendDataFrame allocates %v times per line, want 0", allocs)
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

// TestFrameRefcount exercises the pool discipline: a frame fanned out to n
// recipients survives n-1 releases and recycles on the last.
func TestFrameRefcount(t *testing.T) {
	f := newFrame()
	f.buf = append(f.buf, "DATA q {}"...)
	f.refs.Store(3)
	f.release()
	f.release()
	if string(f.buf) != "DATA q {}" {
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
}
