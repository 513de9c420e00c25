package checkpoint

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
)

// pushHist pushes a tuple whose probabilistic field is a histogram — a
// slotOther occupant in the columnar window, forcing the snapshot through
// the codec-encoded Other path and the aggregate through the Monte Carlo
// fallback.
func pushHist(t *testing.T, eng *core.Engine, q *core.Query, key float64, counts []int) []core.Result {
	t.Helper()
	h, err := dist.HistogramFromCounts([]float64{0, 10, 20, 30}, counts)
	if err != nil {
		t.Fatal(err)
	}
	tup, err := eng.NewTuple("temps", []randvar.Field{randvar.Det(key), {Dist: h, N: 9}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := q.Push(tup)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestColumnarCheckpointRoundTrip drives a columnar window into a wrapped
// ring with mixed Gaussian and histogram slots, round-trips the snapshot
// through the on-disk encoding, and demands bit-identical pushes after
// restore. It also pins that the snapshot actually uses the columnar form.
func TestColumnarCheckpointRoundTrip(t *testing.T) {
	engA := newEngine(t)
	qA, err := engA.Compile(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	// More pushes than the window holds → the ring has wrapped (head != 0)
	// when captured; every third tuple is a histogram (Other slot).
	for i := 0; i < 8; i++ {
		if i%3 == 2 {
			pushHist(t, engA, qA, float64(i), []int{1 + i, 2, 3})
		} else {
			pushOne(t, engA, qA, float64(i), 10+float64(i), 2.5, 20+i)
		}
	}
	snap, err := Capture(engA, 5, []QueryDef{{ID: "q1", SQL: qA.SQL(), Query: qA}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"col_window"`) {
		t.Fatal("snapshot of a columnar engine does not carry col_window state")
	}
	snap2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(engB, snap2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	qB := restored[0].Query
	for i := 8; i < 15; i++ {
		var ra, rb []core.Result
		if i%3 == 2 {
			ra = pushHist(t, engA, qA, float64(i), []int{1 + i, 2, 3})
			rb = pushHist(t, engB, qB, float64(i), []int{1 + i, 2, 3})
		} else {
			ra = pushOne(t, engA, qA, float64(i), 10+float64(i), 2.5, 20+i)
			rb = pushOne(t, engB, qB, float64(i), 10+float64(i), 2.5, 20+i)
		}
		if fa, fb := fingerprint(ra), fingerprint(rb); fa != fb {
			t.Fatalf("push %d diverged:\noriginal:  %srestored: %s", i, fa, fb)
		}
	}
}
