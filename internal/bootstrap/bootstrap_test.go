package bootstrap

import (
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dist"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestPercentileInterval(t *testing.T) {
	vals := make([]float64, 101) // 0..100
	for i := range vals {
		vals[i] = float64(100 - i)
	}
	iv := percentileIntervalInPlace(vals, 0.9)
	approx(t, "lo", iv.Lo, 5, 1e-12)
	approx(t, "hi", iv.Hi, 95, 1e-12)
	approx(t, "level", iv.Level, 0.9, 0)
}

// TestPercentileEmptyGuard checks the percentile helper's empty-slice
// guard: an empty value sequence yields NaN, not a panic.
func TestPercentileEmptyGuard(t *testing.T) {
	if p := percentile(nil, 0.5); !math.IsNaN(p) {
		t.Errorf("percentile(nil) = %v, want NaN", p)
	}
}

// TestAccuracyInfoExample7 mirrors paper Example 7: n = 15, m = 300 gives
// r = 20 resamples, and the 90% interval of the mean comes from the 5th and
// 95th percentiles of the 20 resample means.
func TestAccuracyInfoExample7(t *testing.T) {
	rng := dist.NewRand(42)
	nd, _ := dist.NewNormal(50, 25)
	v := dist.SampleN(nd, 300, rng)
	info, err := AccuracyInfo(v, 15, 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != "bootstrap" || info.N != 15 {
		t.Errorf("metadata wrong: %+v", info)
	}
	if !info.Mean.Contains(50) {
		t.Errorf("mean interval %v misses the true mean (flaky only if the seed is unlucky)", info.Mean)
	}
	if !(info.Mean.Lo < info.Mean.Hi) {
		t.Error("degenerate mean interval")
	}
	if !(info.Variance.Lo < 25 && 25 < info.Variance.Hi) {
		t.Logf("variance interval %v does not bracket 25 (allowed at 90%%)", info.Variance)
	}
}

func TestAccuracyInfoValidation(t *testing.T) {
	v := make([]float64, 100)
	if _, err := AccuracyInfo(v, 1, 0.9, nil); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := AccuracyInfo(v[:5], 4, 0.9, nil); err == nil {
		t.Error("r=1: want error")
	}
}

func TestAccuracyInfoBins(t *testing.T) {
	rng := dist.NewRand(7)
	h, err := dist.HistogramFromCounts([]float64{0, 25, 50, 75, 100}, []int{3, 4, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	v := dist.SampleN(h, 20*50, rng)
	info, err := AccuracyInfo(v, 20, 0.9, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Bins) != 4 {
		t.Fatalf("bins = %d, want 4", len(info.Bins))
	}
	for i, b := range info.Bins {
		if b.Interval.Lo < 0 || b.Interval.Hi > 1 {
			t.Errorf("bin %d interval %v leaves [0,1]", i, b.Interval)
		}
		if !b.Interval.Contains(h.BucketProb(i)) {
			t.Errorf("bin %d interval %v misses the true height %v",
				i, b.Interval, h.BucketProb(i))
		}
	}
}

// TestBootstrapOnSkewedData reproduces the paper's §V-C finding in
// miniature: for a skewed (exponential) result distribution, the bootstrap
// mean intervals are tighter than the analytical t intervals, and the
// bootstrap intervals stay robust (near-nominal coverage) where the
// analytical normality assumption is violated.
func TestBootstrapOnSkewedData(t *testing.T) {
	rng := dist.NewRand(99)
	exp, _ := dist.NewExponential(1)
	const n = 15
	const trials = 300
	shorterMean, meanMisses, varMisses := 0, 0, 0
	for i := 0; i < trials; i++ {
		info, err := FromDistribution(exp, n, 20, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		av, err := accuracy.ForDistribution(exp, n, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mean.Length() < av.Mean.Length() {
			shorterMean++
		}
		if !info.Mean.Contains(exp.Mean()) {
			meanMisses++
		}
		if !info.Variance.Contains(exp.Variance()) {
			varMisses++
		}
	}
	if shorterMean < trials*3/4 {
		t.Errorf("bootstrap mean interval shorter only %d/%d times", shorterMean, trials)
	}
	// 90% intervals: nominal miss rate 10%; the d.f. bootstrap mixes many
	// d.f. samples and comes out conservative in practice.
	if meanMisses > trials/10+5 {
		t.Errorf("bootstrap mean interval missed %d/%d times", meanMisses, trials)
	}
	if varMisses > trials/10+5 {
		t.Errorf("bootstrap variance interval missed %d/%d times", varMisses, trials)
	}
}

func TestFromDistributionValidation(t *testing.T) {
	rng := dist.NewRand(1)
	nd, _ := dist.NewNormal(0, 1)
	if _, err := FromDistribution(nil, 10, 20, 0.9, rng); err == nil {
		t.Error("nil distribution: want error")
	}
	if _, err := FromDistribution(nd, 1, 20, 0.9, rng); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := FromDistribution(nd, 10, 1, 0.9, rng); err == nil {
		t.Error("r=1: want error")
	}
}

// TestConvergenceWithResamples checks that interval lengths stabilize as the
// resample count r grows (the ablation DESIGN.md calls out).
func TestConvergenceWithResamples(t *testing.T) {
	rng := dist.NewRand(12)
	nd, _ := dist.NewNormal(0, 1)
	const n = 20
	lengthAt := func(r int) float64 {
		total := 0.0
		const reps = 40
		for i := 0; i < reps; i++ {
			info, err := FromDistribution(nd, n, r, 0.9, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += info.Mean.Length()
		}
		return total / reps
	}
	l20, l200 := lengthAt(20), lengthAt(200)
	// Lengths at r=20 and r=200 should agree within ~25%: the interval is a
	// property of the sampling distribution, not of r.
	if math.Abs(l20-l200)/l200 > 0.25 {
		t.Errorf("interval length unstable: r=20 → %g, r=200 → %g", l20, l200)
	}
}
