package bootstrap

import (
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dist"
	"repro/internal/learn"
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
		vals[i] = float64(i)
	}
	iv, err := PercentileInterval(vals, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "lo", iv.Lo, 5, 1e-12)
	approx(t, "hi", iv.Hi, 95, 1e-12)
	approx(t, "level", iv.Level, 0.9, 0)

	// Input must not be reordered.
	shuffled := []float64{3, 1, 2}
	if _, err := PercentileInterval(shuffled, 0.5); err != nil {
		t.Fatal(err)
	}
	if shuffled[0] != 3 || shuffled[1] != 1 {
		t.Error("PercentileInterval mutated its input")
	}
}

// TestPercentileIntervalRejectsNaN covers the hardening satellite: a NaN in
// the value sequence must produce a clear error, not a silently wrong
// interval from NaN-poisoned sorting.
func TestPercentileIntervalRejectsNaN(t *testing.T) {
	v := []float64{1, 2, math.NaN(), 4}
	if _, err := PercentileInterval(v, 0.9); err == nil {
		t.Error("PercentileInterval accepted NaN input")
	}
}

// TestPercentileEmptyGuard covers the empty-slice guard added to the
// internal percentile helper via the public path: an empty value sequence
// must error, not panic.
func TestPercentileEmptyGuard(t *testing.T) {
	if _, err := PercentileInterval(nil, 0.9); err == nil {
		t.Error("PercentileInterval accepted empty input")
	}
}

func TestPercentileIntervalValidation(t *testing.T) {
	if _, err := PercentileInterval([]float64{1}, 0.9); err == nil {
		t.Error("single value: want error")
	}
	if _, err := PercentileInterval([]float64{1, 2}, 0); err == nil {
		t.Error("alpha=0: want error")
	}
	if _, err := PercentileInterval([]float64{1, 2}, 1); err == nil {
		t.Error("alpha=1: want error")
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

func TestClassicBootstrap(t *testing.T) {
	// Figure 3's Verizon repair-time sample.
	s := learn.NewSample([]float64{3.12, 0, 1.57, 19.67, 0.22, 2.20})
	rng := dist.NewRand(5)
	boot, err := Classic(s, Mean, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(boot) != 2000 {
		t.Fatalf("len = %d", len(boot))
	}
	// The bootstrap distribution is centered near the original sample mean
	// (4.46 in the paper).
	sum := 0.0
	for _, x := range boot {
		sum += x
	}
	approx(t, "bootstrap center", sum/2000, 4.46, 0.3)
	// Resample means stay within the sample's range.
	for _, x := range boot {
		if x < 0 || x > 19.67 {
			t.Fatalf("impossible resample mean %v", x)
		}
	}
}

func TestClassicIntervalCoverage(t *testing.T) {
	rng := dist.NewRand(31)
	nd, _ := dist.NewNormal(10, 4)
	misses := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		s := learn.NewSample(dist.SampleN(nd, 25, rng))
		iv, err := ClassicInterval(s, Mean, 400, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(10) {
			misses++
		}
	}
	rate := float64(misses) / trials
	// Percentile bootstrap is slightly anti-conservative at n=25.
	if rate > 0.18 {
		t.Errorf("bootstrap mean interval miss rate %g, want ≲0.12", rate)
	}
}

func TestClassicValidation(t *testing.T) {
	rng := dist.NewRand(1)
	if _, err := Classic(nil, Mean, 10, rng); err == nil {
		t.Error("nil sample: want error")
	}
	if _, err := Classic(learn.NewSample(nil), Mean, 10, rng); err == nil {
		t.Error("empty sample: want error")
	}
	s := learn.NewSample([]float64{1, 2, 3})
	if _, err := Classic(s, Mean, 0, rng); err == nil {
		t.Error("b=0: want error")
	}
}

func TestProportionAboveStatistic(t *testing.T) {
	s := learn.NewSample([]float64{1, 2, 3, 4})
	stat := ProportionAbove(2.5)
	v, err := stat(s)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "proportion above", v, 0.5, 1e-12)
}

func TestVarianceStatistic(t *testing.T) {
	s := learn.NewSample([]float64{2, 4, 6})
	v, err := Variance(s)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "variance", v, 4, 1e-12)
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
