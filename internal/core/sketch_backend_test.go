package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accuracy"
)

func sketchConfig() Config {
	return Config{Seed: 7, Method: AccuracyAnalytical, Level: 0.9}
}

const sketchSQL = "SELECT COUNT(delay) AS c, MIN(delay) AS mn, MAX(delay) AS mx, " +
	"AVG(delay) AS av, SUM(delay) AS sm FROM traffic WINDOW 4 ROWS BACKEND SKETCH"

func TestSketchCompileErrors(t *testing.T) {
	e := newTestEngine(t, sketchConfig())
	for _, raw := range []string{
		// Sketch summaries are per-query, not per-group.
		"SELECT road_id, AVG(delay) AS a FROM traffic GROUP BY road_id WINDOW 4 ROWS BACKEND SKETCH",
		// The block ring slides by rows, not wall-clock time.
		"SELECT AVG(delay) AS a FROM traffic WINDOW 10 SECONDS BACKEND SKETCH",
		// Scalar queries have no window to sketch.
		"SELECT delay FROM traffic BACKEND SKETCH",
	} {
		if _, err := e.Compile(raw); err == nil {
			t.Errorf("Compile(%q): want error", raw)
		}
	}
}

func TestSketchBackendSelection(t *testing.T) {
	e := newTestEngine(t, sketchConfig())
	q, err := e.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	exp := q.Explain()
	if !strings.Contains(exp, "accuracy: sketch") || !strings.Contains(exp, "sketch count window of 4 rows") {
		t.Errorf("Explain misses the sketch plan:\n%s", exp)
	}
	// The per-query clause overrides the engine default in both directions.
	q2, err := e.Compile("SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS BACKEND BOOTSTRAP")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q2.Explain(), "accuracy: bootstrap") {
		t.Errorf("BACKEND BOOTSTRAP did not override:\n%s", q2.Explain())
	}
	// No clause: the engine default applies and no sketch window is built.
	q3, err := e.Compile("SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(q3.Explain(), "sketch") {
		t.Errorf("default backend grew a sketch plan:\n%s", q3.Explain())
	}
}

// TestSketchAggregateSemantics drives the full sketch push path on a 4-row
// window (single-row blocks, so the covered rows equal the exact sliding
// window) and checks every aggregate against hand-computed values.
func TestSketchAggregateSemantics(t *testing.T) {
	e := newTestEngine(t, sketchConfig())
	q, err := e.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{60, 40, 75, 55, 90, 10}
	var results []Result
	for i, mu := range means {
		res, err := q.Push(trafficTuple(t, e, 1, mu, 10+i, 50, 20))
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 && len(res) != 0 {
			t.Fatalf("push %d: emitted before the window filled", i)
		}
		if i >= 3 && len(res) != 1 {
			t.Fatalf("push %d: %d results, want 1", i, len(res))
		}
		results = append(results, res...)
	}
	// Last emission covers means[2:6] = {75, 55, 90, 10}.
	last := results[len(results)-1]
	window := means[2:]
	wantMean, wantSum := 0.0, 0.0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, m := range window {
		wantSum += m
		mn, mx = math.Min(mn, m), math.Max(mx, m)
	}
	wantMean = wantSum / 4
	get := func(name string) float64 {
		idx, ok := last.Tuple.Schema.Index(name)
		if !ok {
			t.Fatalf("no column %q", name)
		}
		return last.Tuple.Fields[idx].Dist.Mean()
	}
	approx(t, "count", get("c"), 4, 0)
	approx(t, "min", get("mn"), mn, 0)
	approx(t, "max", get("mx"), mx, 0)
	approx(t, "avg", get("av"), wantMean, 1e-9)
	approx(t, "sum", get("sm"), wantSum, 1e-9)
	// AVG variance is ΣVar/m²: field variances are 100 each (trafficTuple).
	idx, _ := last.Tuple.Schema.Index("av")
	approx(t, "avg variance", last.Tuple.Fields[idx].Dist.Variance(), 400.0/16, 1e-9)
	// Accuracy info: present for AVG and SUM, tagged sketch, with a window
	// median interval bracketing the sample median of the means.
	for _, name := range []string{"av", "sm"} {
		info := last.Fields[name]
		if info == nil {
			t.Fatalf("no accuracy info for %s", name)
		}
		if info.Method != "sketch" {
			t.Errorf("%s method %q", name, info.Method)
		}
		if info.WindowMedian == nil {
			t.Fatalf("%s: no window median interval", name)
		}
		if med := info.WindowMedian; !(med.Lo <= 65 && 65 <= med.Hi) {
			// Sample median of {10, 55, 75, 90} is between 55 and 75.
			t.Errorf("%s window median %+v does not bracket the sample median", name, med)
		}
	}
	if last.Fields["c"] != nil || last.Fields["mn"] != nil {
		t.Error("deterministic aggregates must carry no interval info")
	}
}

// TestSketchMatchesAnalyticalOnCertainStream is the cross-backend fidelity
// check: with single-row blocks and every tuple certain (p = 1), the sketch
// backend's AVG/SUM distributions and mean/variance intervals must agree
// with the analytical backend over the identical window, up to float
// summation order — the membership widening term is exactly zero.
func TestSketchMatchesAnalyticalOnCertainStream(t *testing.T) {
	eS := newTestEngine(t, sketchConfig())
	eA := newTestEngine(t, sketchConfig())
	qS, err := eS.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	qA, err := eA.Compile("SELECT COUNT(delay) AS c, MIN(delay) AS mn, MAX(delay) AS mx, " +
		"AVG(delay) AS av, SUM(delay) AS sm FROM traffic WINDOW 4 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mu := 50 + 20*math.Sin(float64(i))
		rs, err := qS.Push(trafficTuple(t, eS, 1, mu, 15, 40, 20))
		if err != nil {
			t.Fatal(err)
		}
		ra, err := qA.Push(trafficTuple(t, eA, 1, mu, 15, 40, 20))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			continue // sketch window not yet full
		}
		if len(ra) == 0 {
			t.Fatalf("push %d: sketch emitted but analytical did not", i)
		}
		s, a := rs[0], ra[0]
		for _, name := range []string{"av", "sm"} {
			is, ia := s.Tuple.Schema, a.Tuple.Schema
			si, _ := is.Index(name)
			ai, _ := ia.Index(name)
			fs, fa := s.Tuple.Fields[si], a.Tuple.Fields[ai]
			approx(t, name+" mean", fs.Dist.Mean(), fa.Dist.Mean(), 1e-9*math.Abs(fa.Dist.Mean()))
			approx(t, name+" variance", fs.Dist.Variance(), fa.Dist.Variance(), 1e-9*fa.Dist.Variance())
			if fs.N != fa.N {
				t.Errorf("%s: d.f. %d vs %d", name, fs.N, fa.N)
			}
			infoS, infoA := s.Fields[name], a.Fields[name]
			if infoS == nil || infoA == nil {
				t.Fatalf("%s: missing info (sketch %v, analytical %v)", name, infoS != nil, infoA != nil)
			}
			cmpIv := func(what string, a, b accuracy.Interval) {
				t.Helper()
				tol := 1e-9 * math.Max(1, math.Abs(b.Lo)+math.Abs(b.Hi))
				if math.Abs(a.Lo-b.Lo) > tol || math.Abs(a.Hi-b.Hi) > tol {
					t.Errorf("%s %s: sketch %+v vs analytical %+v", name, what, a, b)
				}
			}
			cmpIv("mean interval", infoS.Mean, infoA.Mean)
			cmpIv("variance interval", infoS.Variance, infoA.Variance)
		}
	}
}

// TestSketchSnapshotRoundTrip: capturing mid-window and restoring into a
// fresh compile continues bit-identically — the engine half of checkpoint
// recovery and replica catch-up for sketch queries.
func TestSketchSnapshotRoundTrip(t *testing.T) {
	eA := newTestEngine(t, sketchConfig())
	qA, err := eA.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := qA.Push(trafficTuple(t, eA, 1, float64(20+i*3), 10, 40, 20)); err != nil {
			t.Fatal(err)
		}
	}
	st := qA.State()
	if st.Sketch == nil {
		t.Fatal("sketch query state has no sketch window")
	}
	if st.ColWindow != nil {
		t.Fatal("sketch query state carries a materialized window")
	}
	eB := newTestEngine(t, sketchConfig())
	qB, err := eB.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := qB.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := 7; i < 20; i++ {
		ra, err := qA.Push(trafficTuple(t, eA, 1, float64(20+i*3), 10, 40, 20))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := qB.Push(trafficTuple(t, eB, 1, float64(20+i*3), 10, 40, 20))
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("push %d: %d vs %d results", i, len(ra), len(rb))
		}
		for j := range ra {
			for k := range ra[j].Tuple.Fields {
				fa, fb := ra[j].Tuple.Fields[k], rb[j].Tuple.Fields[k]
				if fa.Dist.Mean() != fb.Dist.Mean() || fa.Dist.Variance() != fb.Dist.Variance() {
					t.Fatalf("push %d field %d diverged after restore", i, k)
				}
			}
		}
	}
}

func TestSketchSnapshotRejectsMismatch(t *testing.T) {
	e := newTestEngine(t, sketchConfig())
	qSketch, err := e.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qSketch.Push(trafficTuple(t, e, 1, 50, 10, 40, 20)); err != nil {
		t.Fatal(err)
	}
	st := qSketch.State()

	// Sketch state into a non-sketch query.
	qPlain, err := e.Compile("SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if err := qPlain.SetState(st); err == nil {
		t.Error("sketch state restored into a non-sketch query")
	}

	// Geometry mismatch: same backend, different window size.
	qOther, err := e.Compile("SELECT COUNT(delay) AS c, MIN(delay) AS mn, MAX(delay) AS mx, " +
		"AVG(delay) AS av, SUM(delay) AS sm FROM traffic WINDOW 8 ROWS BACKEND SKETCH")
	if err != nil {
		t.Fatal(err)
	}
	if err := qOther.SetState(st); err == nil {
		t.Error("sketch state restored across mismatched geometry")
	}

	// Corrupted sketch state must be rejected by validation.
	st2 := qSketch.State()
	st2.Sketch.LiveRows++
	qFresh, err := e.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := qFresh.SetState(st2); err == nil {
		t.Error("corrupted sketch state accepted")
	}
}

// TestSketchMembershipWidensIntervals: an uncertain stream (p < 1) must widen
// the sketch mean interval relative to the identical certain stream — the
// honest-interval contract of the probabilistic moments.
func TestSketchMembershipWidensIntervals(t *testing.T) {
	width := func(minProb float64, filter string) float64 {
		cfg := sketchConfig()
		cfg.MinProb = minProb
		e := newTestEngine(t, cfg)
		q, err := e.Compile("SELECT AVG(delay) AS a FROM traffic" + filter + " WINDOW 4 ROWS BACKEND SKETCH")
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		for i := 0; i < 8; i++ {
			res, err := q.Push(trafficTuple(t, e, 1, 60+float64(i), 25, 40, 20))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if info := r.Fields["a"]; info != nil {
					got = info.Mean.Hi - info.Mean.Lo
				}
			}
		}
		if got == 0 {
			t.Fatal("no interval emitted")
		}
		return got
	}
	certain := width(0, "")
	// The WHERE predicate answers probabilistically, so surviving tuples
	// carry p < 1 and the membership term is positive.
	uncertain := width(0.05, " WHERE delay > 55")
	if uncertain <= certain {
		t.Errorf("membership uncertainty did not widen the interval: certain %g, uncertain %g",
			certain, uncertain)
	}
}
