package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/hypothesis"
)

// normalSource draws from a fixed distribution.
func normalSource(mu, sigma2 float64, seed uint64) Source {
	rng := dist.NewRand(seed)
	nd, _ := dist.NewNormal(mu, sigma2)
	return func(n int) ([]float64, error) {
		return dist.SampleN(nd, n, rng), nil
	}
}

func TestAcquireRuleValidation(t *testing.T) {
	src := normalSource(0, 1, 1)
	if _, err := Acquire(nil, AcquireRule{MaxWidth: 1}); err == nil {
		t.Error("nil source: want error")
	}
	bad := []AcquireRule{
		{},                               // no stopping rule
		{MaxWidth: -1},                   // negative width
		{MaxWidth: 1, Level: 2},          // bad level
		{MaxWidth: 1, Batch: -1},         // bad batch
		{MaxWidth: 1, MaxN: 3, MinN: 10}, // budget below MinN
		{Test: &AcquireTest{Op: hypothesis.Greater, C: 0, Alpha1: 0, Alpha2: 0.05}},
	}
	for i, r := range bad {
		if _, err := Acquire(src, r); err == nil {
			t.Errorf("rule %d: want error", i)
		}
	}
}

// TestAcquireRefusesNonFiniteRule: a NaN level used to pass the range check
// and fail only after the first batch had been acquired; a NaN width
// disabled the width rule, so acquisition ran to the budget. Both are
// refused before the source is asked for anything.
func TestAcquireRefusesNonFiniteRule(t *testing.T) {
	for _, r := range []AcquireRule{
		{MaxWidth: 1, Level: math.NaN()},
		{MaxWidth: math.NaN()},
		{MaxWidth: math.Inf(1)},
	} {
		calls := 0
		src := func(n int) ([]float64, error) {
			calls++
			return make([]float64, n), nil
		}
		if _, err := Acquire(src, r); err == nil || calls != 0 {
			t.Errorf("rule %+v: err %v after %d source calls, want an error and none", r, err, calls)
		}
	}
}

func TestAcquireStopsOnWidth(t *testing.T) {
	res, err := Acquire(normalSource(52, 36, 7), AcquireRule{
		MaxWidth: 2,
		MaxN:     10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopWidth {
		t.Fatalf("reason = %q, want width", res.Reason)
	}
	if res.Mean.Length() > 2 {
		t.Errorf("final interval %v wider than target", res.Mean)
	}
	// 90% interval width 2 with σ=6 needs n ≈ (1.645·6/1)² ≈ 97.
	n := res.Sample.Size()
	if n < 50 || n > 300 {
		t.Errorf("stopped after %d observations, expected ≈100", n)
	}
	if !res.Mean.Contains(52) {
		t.Logf("interval %v missed the true mean (allowed at 90%%)", res.Mean)
	}
}

func TestAcquireStopsOnDecision(t *testing.T) {
	res, err := Acquire(normalSource(52, 36, 9), AcquireRule{
		Test: &AcquireTest{Op: hypothesis.Greater, C: 50, Alpha1: 0.05, Alpha2: 0.05},
		MaxN: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopDecided || res.Decision != hypothesis.True {
		t.Fatalf("reason %q decision %v, want decided TRUE", res.Reason, res.Decision)
	}
	// The decision should arrive long before a narrow-width rule would.
	if res.Sample.Size() > 400 {
		t.Errorf("decision took %d observations", res.Sample.Size())
	}
	// The opposite hypothesis decides FALSE.
	res, err = Acquire(normalSource(52, 36, 10), AcquireRule{
		Test: &AcquireTest{Op: hypothesis.Greater, C: 54, Alpha1: 0.05, Alpha2: 0.05},
		MaxN: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopDecided || res.Decision != hypothesis.False {
		t.Fatalf("reason %q decision %v, want decided FALSE", res.Reason, res.Decision)
	}
}

func TestAcquireBudget(t *testing.T) {
	// Mean exactly at the threshold: the test can never decide; the
	// budget stops the loop.
	res, err := Acquire(normalSource(50, 36, 11), AcquireRule{
		Test: &AcquireTest{Op: hypothesis.Greater, C: 50, Alpha1: 0.01, Alpha2: 0.01},
		MaxN: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopBudget {
		t.Fatalf("reason = %q, want budget", res.Reason)
	}
	if res.Sample.Size() != 200 {
		t.Errorf("acquired %d, want exactly the 200 budget", res.Sample.Size())
	}
	if res.Decision != hypothesis.Unsure {
		t.Errorf("decision = %v, want UNSURE", res.Decision)
	}
}

func TestAcquireExhaustedSource(t *testing.T) {
	// A source that dries up after 7 observations.
	remaining := 7
	rng := dist.NewRand(3)
	src := func(n int) ([]float64, error) {
		if n > remaining {
			n = remaining
		}
		remaining -= n
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out, nil
	}
	res, err := Acquire(src, AcquireRule{MaxWidth: 0.001, MaxN: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopBudget || res.Sample.Size() != 7 {
		t.Fatalf("reason %q size %d, want budget/7", res.Reason, res.Sample.Size())
	}
}

func TestAcquireSourceError(t *testing.T) {
	boom := errors.New("sensor offline")
	src := func(int) ([]float64, error) { return nil, boom }
	if _, err := Acquire(src, AcquireRule{MaxWidth: 1}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestAcquireMinNDefersDecision(t *testing.T) {
	// With an absurdly wide MaxWidth, the first check would stop
	// immediately; MinN forces at least 50 observations.
	res, err := Acquire(normalSource(0, 1, 13), AcquireRule{
		MaxWidth: 100,
		MinN:     50,
		Batch:    10,
		MaxN:     1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.Size() < 50 {
		t.Errorf("stopped at %d before MinN", res.Sample.Size())
	}
	if res.Rounds < 5 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}
