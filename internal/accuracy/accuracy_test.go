package accuracy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/learn"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

// TestExample2 reproduces paper Example 2 exactly: n = 20, four buckets with
// counts 3, 4, 8, 5, 90% confidence.
func TestExample2(t *testing.T) {
	h, err := dist.HistogramFromCounts([]float64{0, 25, 50, 75, 100}, []int{3, 4, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	bins, err := HistogramAccuracy(h, 0, 0.9) // n from retained counts
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ lo, hi float64 }{
		{0.062, 0.322}, // n·p = 3 < 4 → Wilson score (paper eq. 2)
		{0.05, 0.35},   // n·p = 4 → Wald (paper eq. 1)
		{0.22, 0.58},
		{0.09, 0.41},
	}
	for i, w := range want {
		approx(t, "bin lo", bins[i].Interval.Lo, w.lo, 0.005)
		approx(t, "bin hi", bins[i].Interval.Hi, w.hi, 0.005)
	}
}

// TestExample3 reproduces paper Example 3: 10 observations of traffic delay,
// 90% intervals for mean and variance.
func TestExample3(t *testing.T) {
	s := learn.NewSample([]float64{71, 56, 82, 74, 69, 77, 65, 78, 59, 80})
	ybar, _ := s.Mean()
	sd, _ := s.StdDev()
	info, err := ForSample(ybar, sd, s.Size(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "μ1", info.Mean.Lo, 65.97, 0.01)
	approx(t, "μ2", info.Mean.Hi, 76.23, 0.01)
	approx(t, "σ1²", info.Variance.Lo, 41.66, 0.05)
	approx(t, "σ2²", info.Variance.Hi, 211.99, 0.3)
}

// TestExample5 reproduces paper Example 5: tuple probability 0.6 from a d.f.
// sample of size 20 gives a 90% interval [0.42, 0.78].
func TestExample5(t *testing.T) {
	iv, err := TupleProbInterval(0.6, 20, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "tuple prob lo", iv.Lo, 0.42, 0.005)
	approx(t, "tuple prob hi", iv.Hi, 0.78, 0.005)
}

func TestBinHeightIntervalValidation(t *testing.T) {
	if _, err := BinHeightInterval(0.5, 0, 0.9); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := BinHeightInterval(-0.1, 10, 0.9); err == nil {
		t.Error("p<0: want error")
	}
	if _, err := BinHeightInterval(1.1, 10, 0.9); err == nil {
		t.Error("p>1: want error")
	}
	if _, err := BinHeightInterval(0.5, 10, 0); err == nil {
		t.Error("c=0: want error")
	}
	if _, err := BinHeightInterval(0.5, 10, 1); err == nil {
		t.Error("c=1: want error")
	}
}

func TestBinHeightIntervalClamped(t *testing.T) {
	// Extreme p with small n: Wilson keeps the interval inside [0, 1].
	for _, p := range []float64{0, 0.01, 0.99, 1} {
		iv, err := BinHeightInterval(p, 5, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo < 0 || iv.Hi > 1 {
			t.Errorf("interval %v for p=%v leaves [0,1]", iv, p)
		}
		if !iv.Contains(p) {
			t.Errorf("interval %v does not contain the estimate %v", iv, p)
		}
	}
}

func TestWaldWilsonSwitch(t *testing.T) {
	// Exactly at the threshold n·p = 4 the Wald interval applies and is
	// symmetric about p; just below, Wilson applies and is asymmetric.
	wald, err := BinHeightInterval(0.2, 20, 0.9) // n·p = 4
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Wald symmetric", wald.Hi-0.2, 0.2-wald.Lo, 1e-12)
	wilson, err := BinHeightInterval(0.15, 20, 0.9) // n·p = 3
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((wilson.Hi-0.15)-(0.15-wilson.Lo)) < 1e-6 {
		t.Error("Wilson interval unexpectedly symmetric about p")
	}
	// Wilson must also kick in when n(1−p) < 4.
	highP, err := BinHeightInterval(0.9, 20, 0.9) // n(1−p) = 2
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((highP.Hi-0.9)-(0.9-highP.Lo)) < 1e-6 {
		t.Error("expected Wilson (asymmetric) for n(1−p) < 4")
	}
}

func TestIntervalLengthShrinksWithN(t *testing.T) {
	// Lemma 1 remark: length is roughly ∝ 1/√n.
	prev := math.Inf(1)
	for _, n := range []int{10, 20, 40, 80, 160} {
		iv, err := BinHeightInterval(0.4, n, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Length() >= prev {
			t.Errorf("interval length did not shrink at n=%d", n)
		}
		prev = iv.Length()
	}
	// Quantitative: doubling n four times scales length by ~1/4.
	iv10, _ := BinHeightInterval(0.4, 100, 0.9)
	iv1600, _ := BinHeightInterval(0.4, 1600, 0.9)
	approx(t, "1/√n scaling", iv10.Length()/iv1600.Length(), 4, 0.05)
}

func TestMeanIntervalTvsZ(t *testing.T) {
	// At the n = 30 boundary Lemma 2 switches from t to z; the t interval
	// at n = 29 must be wider than the z interval would be.
	ivT, err := MeanInterval(0, 1, 29, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ivZ, err := MeanInterval(0, 1, 30, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize out the 1/√n factor to compare multipliers.
	tMult := ivT.Length() * math.Sqrt(29) / 2
	zMult := ivZ.Length() * math.Sqrt(30) / 2
	if tMult <= zMult {
		t.Errorf("t multiplier %g not wider than z multiplier %g", tMult, zMult)
	}
	approx(t, "z multiplier", zMult, 1.6448536269514722, 1e-9)
}

func TestMeanIntervalValidation(t *testing.T) {
	if _, err := MeanInterval(0, 1, 1, 0.9); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := MeanInterval(0, -1, 10, 0.9); err == nil {
		t.Error("negative s: want error")
	}
	if _, err := MeanInterval(0, 1, 10, 1.5); err == nil {
		t.Error("c>1: want error")
	}
}

func TestVarianceIntervalValidation(t *testing.T) {
	if _, err := VarianceInterval(1, 1, 0.9); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := VarianceInterval(-1, 10, 0.9); err == nil {
		t.Error("negative s²: want error")
	}
}

// TestIntervalsAllocFreeAfterChurn: Lemma 2's critical values come from
// stat's bounded table. After a burst of distinct (level, n) pairs far past
// its capacity, one call re-installs a hot pair, and from then on both
// intervals for it allocate nothing.
func TestIntervalsAllocFreeAfterChurn(t *testing.T) {
	for i := 0; i < 4096; i++ {
		if _, err := VarianceInterval(4, 2+i, 0.95); err != nil {
			t.Fatal(err)
		}
		if _, err := MeanInterval(0, 2, 2+i%28, 0.5+float64(i)*1e-4); err != nil {
			t.Fatal(err)
		}
	}
	const n, c = 20, 0.95
	if _, err := ForSample(50, 3, n, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := MeanInterval(50, 3, n, c); err != nil {
			t.Fatal(err)
		}
		if _, err := VarianceInterval(9, n, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MeanInterval + VarianceInterval allocate %v times per call, want 0", allocs)
	}
}

func TestVarianceIntervalAsymmetry(t *testing.T) {
	// The chi-square interval is asymmetric: the upper bound is farther
	// from s² than the lower bound for small n.
	iv, err := VarianceInterval(10, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo < 10 && 10 < iv.Hi) {
		t.Fatalf("interval %v does not bracket s²", iv)
	}
	if iv.Hi-10 <= 10-iv.Lo {
		t.Error("chi-square interval should be right-skewed for small n")
	}
}

func TestDFSampleSize(t *testing.T) {
	// Example 4: A, B, C sample sizes 15, 10, 20 → (A+B)/2 has d.f. size 10.
	n, err := DFSampleSize(15, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("d.f. size = %d, want 10", n)
	}
	// The tuple-existence variable depends on C only → 20.
	n, err = DFSampleSize(20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("d.f. size = %d, want 20", n)
	}
	if _, err := DFSampleSize(); err == nil {
		t.Error("no inputs: want error")
	}
	if _, err := DFSampleSize(5, 0); err == nil {
		t.Error("zero input size: want error")
	}
}

func TestForDistributionHistogram(t *testing.T) {
	h, err := dist.HistogramFromCounts([]float64{0, 25, 50, 75, 100}, []int{3, 4, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ForDistribution(h, 20, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Bins) != 4 {
		t.Fatalf("Bins = %d, want 4", len(info.Bins))
	}
	if info.Method != "analytical" || info.N != 20 || info.Level != 0.9 {
		t.Errorf("info metadata wrong: %+v", info)
	}
	if !info.Mean.Contains(h.Mean()) {
		t.Error("mean interval must contain the point estimate")
	}
	if !info.Variance.Contains(h.Variance()) {
		t.Error("variance interval must contain the point estimate")
	}
}

func TestForDistributionNonHistogram(t *testing.T) {
	n, _ := dist.NewNormal(5, 4)
	info, err := ForDistribution(n, 25, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bins != nil {
		t.Error("non-histogram should have no bin intervals")
	}
	if !info.Mean.Contains(5) || !info.Variance.Contains(4) {
		t.Error("intervals must contain the distribution's parameters")
	}
	if _, err := ForDistribution(nil, 10, 0.9); err == nil {
		t.Error("nil distribution: want error")
	}
	if _, err := ForDistribution(n, 1, 0.9); err == nil {
		t.Error("n=1: want error")
	}
}

// TestMeanIntervalCoverage verifies empirically that the Lemma 2 interval
// covers the true mean at roughly its nominal rate for normal data.
func TestMeanIntervalCoverage(t *testing.T) {
	r := dist.NewRand(123)
	nd, _ := dist.NewNormal(10, 9)
	const trials = 4000
	misses := 0
	for i := 0; i < trials; i++ {
		s := learn.NewSample(dist.SampleN(nd, 20, r))
		ybar, _ := s.Mean()
		sd, _ := s.StdDev()
		iv, err := MeanInterval(ybar, sd, 20, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(10) {
			misses++
		}
	}
	rate := float64(misses) / trials
	// Nominal 10% miss rate; allow Monte Carlo slack.
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("mean interval miss rate %g, want ≈0.10", rate)
	}
}

// TestVarianceIntervalCoverage does the same for the chi-square interval.
func TestVarianceIntervalCoverage(t *testing.T) {
	r := dist.NewRand(321)
	nd, _ := dist.NewNormal(0, 4)
	const trials = 4000
	misses := 0
	for i := 0; i < trials; i++ {
		s := learn.NewSample(dist.SampleN(nd, 20, r))
		v, _ := s.Variance()
		iv, err := VarianceInterval(v, 20, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(4) {
			misses++
		}
	}
	rate := float64(misses) / trials
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("variance interval miss rate %g, want ≈0.10", rate)
	}
}

// TestBinHeightCoverage checks Lemma 1 coverage on a Bernoulli bucket.
func TestBinHeightCoverage(t *testing.T) {
	r := dist.NewRand(77)
	const trueP = 0.3
	const n = 40
	const trials = 4000
	misses := 0
	for i := 0; i < trials; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if r.Float64() < trueP {
				k++
			}
		}
		iv, err := BinHeightInterval(float64(k)/n, n, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(trueP) {
			misses++
		}
	}
	rate := float64(misses) / trials
	// The Wald interval is slightly anti-conservative; allow up to 14%.
	if rate > 0.14 {
		t.Errorf("bin-height miss rate %g, want ≲0.10", rate)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3, Level: 0.9}
	approx(t, "Length", iv.Length(), 2, 0)
	if !iv.Contains(1) || !iv.Contains(3) || iv.Contains(0.99) || iv.Contains(3.01) {
		t.Error("Contains boundary behaviour wrong")
	}
	c := Interval{Lo: -0.5, Hi: 1.5, Level: 0.9}.Clamp(0, 1)
	if c.Lo != 0 || c.Hi != 1 {
		t.Errorf("Clamp = %v", c)
	}
	// Disjoint clamps collapse to the nearer bound.
	c = Interval{Lo: -3, Hi: -2, Level: 0.9}.Clamp(0, 1)
	if c.Lo != 0 || c.Hi != 0 {
		t.Errorf("disjoint Clamp = %v", c)
	}
}

func TestBinHeightIntervalProperty(t *testing.T) {
	// For any valid p, n, c: the interval contains p, sits inside [0,1],
	// and higher confidence never shrinks it.
	f := func(pu, cu float64, nSeed uint16) bool {
		p := math.Mod(math.Abs(pu), 1)
		n := int(nSeed%500) + 1
		c1 := math.Mod(math.Abs(cu), 0.5) + 0.4 // [0.4, 0.9)
		c2 := c1 + 0.05                         // strictly higher level
		iv1, err1 := BinHeightInterval(p, n, c1)
		iv2, err2 := BinHeightInterval(p, n, c2)
		if err1 != nil || err2 != nil {
			return false
		}
		return iv1.Contains(p) && iv1.Lo >= 0 && iv1.Hi <= 1 &&
			iv2.Length() >= iv1.Length()-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
