package core

import (
	"testing"
)

// runShedQuery pushes count tuples through a bootstrap aggregate query at a
// fixed degrade level and returns the query plus mean CI half-width
// telemetry.
func runShedQuery(t *testing.T, level, count int) (*Query, float64) {
	t.Helper()
	e := newTestEngine(t, Config{Method: AccuracyBootstrap, Seed: 11})
	e.SetDegradeLevel(level)
	q, err := e.Compile("SELECT AVG(delay) FROM traffic WINDOW 8 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		tp := trafficTuple(t, e, float64(i), 30, 25, 40, 25)
		if _, err := q.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	return q, q.Telemetry().MeanCIHalfWidth.Mean
}

// TestShedLevelsWidenIntervals checks the honesty contract of load shedding:
// fewer resamples mean wider reported confidence intervals, never silently
// wrong narrow ones, and the Shed stat counts every reduced evaluation.
func TestShedLevelsWidenIntervals(t *testing.T) {
	q0, hw0 := runShedQuery(t, 0, 24)
	if q0.Stats().Shed != 0 {
		t.Fatalf("level 0 shed count = %d, want 0", q0.Stats().Shed)
	}
	q3, hw3 := runShedQuery(t, MaxDegradeLevel, 24)
	if q3.Stats().Shed == 0 {
		t.Fatal("level 3 shed count = 0, want > 0")
	}
	if hw0 <= 0 || hw3 <= 0 {
		t.Fatalf("half-widths must be positive: level0=%g level3=%g", hw0, hw3)
	}
	// The full-budget run averages ~8x the resamples; across 24 evaluations
	// its mean half-width must not exceed the shed run's (sampling noise on
	// one interval is possible, the averaged ordering is not).
	if hw3 < hw0 {
		t.Errorf("shed half-width %g < full-budget half-width %g: shedding must widen intervals", hw3, hw0)
	}
}

// TestShedDeterministicPerLevel checks that two engines at the same level
// produce bit-identical accuracy output — the property the journaled level
// transitions preserve across crash recovery.
func TestShedDeterministicPerLevel(t *testing.T) {
	for _, level := range []int{0, 1, MaxDegradeLevel} {
		_, a := runShedQuery(t, level, 12)
		_, b := runShedQuery(t, level, 12)
		if a != b {
			t.Errorf("level %d: half-width %g vs %g, want bit-identical", level, a, b)
		}
	}
}

// TestShedDivisorClamps checks the ladder arithmetic and level clamping.
func TestShedDivisorClamps(t *testing.T) {
	for _, tc := range []struct{ level, div int }{
		{-1, 1}, {0, 1}, {1, 2}, {2, 4}, {3, 8}, {99, 8},
	} {
		if got := shedDivisor(tc.level); got != tc.div {
			t.Errorf("shedDivisor(%d) = %d, want %d", tc.level, got, tc.div)
		}
	}
	e := newTestEngine(t, Config{})
	e.SetDegradeLevel(99)
	if e.DegradeLevel() != MaxDegradeLevel {
		t.Errorf("SetDegradeLevel(99) → %d, want clamp to %d", e.DegradeLevel(), MaxDegradeLevel)
	}
	e.SetDegradeLevel(-5)
	if e.DegradeLevel() != 0 {
		t.Errorf("SetDegradeLevel(-5) → %d, want 0", e.DegradeLevel())
	}
}
