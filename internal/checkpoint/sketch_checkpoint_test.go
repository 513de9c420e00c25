package checkpoint

import (
	"strings"
	"testing"

	"repro/internal/core"
)

const sketchSQL = "SELECT COUNT(val) AS c, AVG(val) AS a, SUM(val) AS s FROM temps WINDOW 4 ROWS BACKEND SKETCH"

// TestCaptureRestoreSketch checkpoints a sketch-backed query mid-window —
// sealed blocks, a partially filled active block, accumulated quantile
// compactions — round-trips it through the on-disk encoding, and verifies
// the restored query continues bit-identically.
func TestCaptureRestoreSketch(t *testing.T) {
	engA := newEngine(t)
	qA, err := engA.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	// 7 pushes on a 4-row window: full, with eviction history behind it.
	for i := 0; i < 7; i++ {
		pushOne(t, engA, qA, float64(i), 10+float64(i), 2.5, 20+i)
	}

	snap, err := Capture(engA, 99, []QueryDef{{ID: "qs", SQL: qA.String(), Query: qA}})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if snap.Queries[0].Sketch == nil {
		t.Fatal("captured sketch query state has no sketch window")
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Queries[0].Sketch == nil {
		t.Fatal("sketch window lost in the on-disk encoding")
	}
	if err := snap2.Queries[0].Sketch.Validate(); err != nil {
		t.Fatalf("decoded sketch window invalid: %v", err)
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

	for i := 7; i < 18; i++ {
		ra := pushOne(t, engA, qA, float64(i), 10+float64(i), 2.5, 20+i)
		rb := pushOne(t, engB, qB, float64(i), 10+float64(i), 2.5, 20+i)
		if fa, fb := fingerprint(ra), fingerprint(rb); fa != fb {
			t.Fatalf("push %d diverged after sketch restore:\noriginal: %srestored: %s", i, fa, fb)
		}
	}
	if sa, sb := qA.Stats(), qB.Stats(); sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
}

// TestRestoreSketchRejectsCorruption: a tampered sketch payload must fail
// closed at Restore, not produce silently wrong summaries.
func TestRestoreSketchRejectsCorruption(t *testing.T) {
	eng := newEngine(t)
	q, err := eng.Compile(sketchSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pushOne(t, eng, q, float64(i), 12, 2.0, 15)
	}
	snap, err := Capture(eng, 1, []QueryDef{{ID: "qs", SQL: q.String(), Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	snap.Queries[0].Sketch.LiveRows++ // break the row-sum invariant

	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(engB, snap); err == nil {
		t.Fatal("corrupted sketch state restored without error")
	} else if !strings.Contains(err.Error(), "sketch") {
		t.Fatalf("error %v does not identify the sketch state", err)
	}
}
