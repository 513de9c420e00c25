package learn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

// example3 is the raw sample from paper Example 3.
func example3() *Sample {
	return NewSample([]float64{71, 56, 82, 74, 69, 77, 65, 78, 59, 80})
}

func TestSampleStatsExample3(t *testing.T) {
	s := example3()
	if s.Size() != 10 {
		t.Fatalf("Size = %d", s.Size())
	}
	mean, err := s.Mean()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mean", mean, 71.1, 1e-12) // paper: ȳ = 71.1
	sd, err := s.StdDev()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "stddev", sd, 8.85, 0.005) // paper: s = 8.85
}

func TestEmptySampleErrors(t *testing.T) {
	s := NewSample(nil)
	if _, err := s.Mean(); err == nil {
		t.Error("Mean on empty: want error")
	}
	if _, err := s.Variance(); err == nil {
		t.Error("Variance on empty: want error")
	}
	if _, err := s.Min(); err == nil {
		t.Error("Min on empty: want error")
	}
	if _, err := s.Max(); err == nil {
		t.Error("Max on empty: want error")
	}
	if _, err := s.Quantile(0.5); err == nil {
		t.Error("Quantile on empty: want error")
	}
	one := NewSample([]float64{5})
	if _, err := one.Variance(); err == nil {
		t.Error("Variance of singleton: want error")
	}
}

func TestAddAndObservations(t *testing.T) {
	s := NewSample([]float64{1, 2})
	s.Add(3)
	s.AddAll([]float64{4, 5})
	if s.Size() != 5 || s.Observations()[4] != 5 {
		t.Fatalf("unexpected sample: %v", s.Observations())
	}
	obs := s.Observations()
	obs[0] = 99
	if s.Observations()[0] == 99 {
		t.Error("Observations did not copy")
	}
}

func TestQuantile(t *testing.T) {
	s := NewSample([]float64{1, 2, 3, 4, 5})
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := s.Quantile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "quantile", got, c.want, 1e-12)
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Error("p>1: want error")
	}
}

func TestProportion(t *testing.T) {
	// Example 8: 100 observations, 60 above 100.
	obs := make([]float64, 100)
	for i := range obs {
		if i < 60 {
			obs[i] = 120
		} else {
			obs[i] = 80
		}
	}
	s := NewSample(obs)
	p, err := s.Proportion(func(x float64) bool { return x > 100 })
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "proportion", p, 0.6, 1e-12)
}

func TestHistogramLearner(t *testing.T) {
	s := NewSample([]float64{0.5, 1.5, 1.6, 2.5, 3.5, 3.6, 3.7, 3.8})
	l := NewHistogramLearnerRange(4, 0, 4)
	d, err := l.Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := d.(*dist.Histogram)
	if !ok {
		t.Fatalf("got %T, want *dist.Histogram", d)
	}
	if h.SampleSize() != 8 {
		t.Errorf("SampleSize = %d, want 8", h.SampleSize())
	}
	wantCounts := []int{1, 2, 1, 4}
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, h.Counts[i], w)
		}
	}
}

func TestHistogramLearnerAutoRange(t *testing.T) {
	s := example3()
	l := NewHistogramLearner(5)
	d, err := l.Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	h := d.(*dist.Histogram)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("total count %d, want 10", total)
	}
	// Every observation must land inside the support.
	for _, x := range s.Observations() {
		if h.BucketIndex(x) < 0 {
			t.Errorf("observation %v outside learned support", x)
		}
	}
}

func TestHistogramLearnerClampsOutliers(t *testing.T) {
	s := NewSample([]float64{-5, 0.25, 10})
	l := NewHistogramLearnerRange(2, 0, 1)
	d, err := l.Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	h := d.(*dist.Histogram)
	if h.Counts[0] != 2 || h.Counts[1] != 1 {
		t.Errorf("counts = %v, want [2 1]", h.Counts)
	}
}

func TestHistogramLearnerDegenerate(t *testing.T) {
	s := NewSample([]float64{7, 7, 7})
	d, err := NewHistogramLearner(3).Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "degenerate hist mean", d.Mean(), 7, 0.5)
	if _, err := NewHistogramLearner(0).Learn(s); err == nil {
		t.Error("0 bins: want error")
	}
	if _, err := NewHistogramLearner(3).Learn(NewSample(nil)); err == nil {
		t.Error("empty sample: want error")
	}
}

func TestGaussianLearner(t *testing.T) {
	s := example3()
	d, err := GaussianLearner{}.Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := d.(dist.Normal)
	if !ok {
		t.Fatalf("got %T, want dist.Normal", d)
	}
	approx(t, "learned mean", n.Mu, 71.1, 1e-12)
	approx(t, "learned var", n.Sigma2, 78.3222, 0.01) // s² ≈ 8.85²

	// Constant sample degenerates to a point.
	d, err = GaussianLearner{}.Learn(NewSample([]float64{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(dist.Point); !ok {
		t.Errorf("constant sample learned %T, want dist.Point", d)
	}
}

func TestEmpiricalLearner(t *testing.T) {
	s := example3()
	d, err := EmpiricalLearner{}.Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "empirical mean", d.Mean(), 71.1, 1e-9)
	if _, err := (EmpiricalLearner{}).Learn(NewSample(nil)); err == nil {
		t.Error("empty sample: want error")
	}
}

func TestKDELearner(t *testing.T) {
	s := example3()
	d, err := KDELearner{}.Learn(s)
	if err != nil {
		t.Fatal(err)
	}
	// KDE preserves the sample mean exactly (mixture of kernels centered
	// at observations).
	approx(t, "kde mean", d.Mean(), 71.1, 1e-9)
	// KDE inflates variance by h².
	if d.Variance() <= 70 {
		t.Errorf("kde variance %g implausibly small", d.Variance())
	}
	if _, err := (KDELearner{}).Learn(NewSample(nil)); err == nil {
		t.Error("empty sample: want error")
	}
	// Fixed bandwidth.
	d2, err := KDELearner{Bandwidth: 0.1}.Learn(NewSample([]float64{5}))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "single-point kde mean", d2.Mean(), 5, 1e-12)
}

func TestLearnerNames(t *testing.T) {
	names := map[string]Learner{
		"histogram":    NewHistogramLearner(4),
		"gaussian-mle": GaussianLearner{},
		"empirical":    EmpiricalLearner{},
		"kde":          KDELearner{},
	}
	for want, l := range names {
		if l.Name() != want {
			t.Errorf("Name() = %q, want %q", l.Name(), want)
		}
	}
}

func TestSampleMeanVarianceProperties(t *testing.T) {
	// Shifting a sample by c shifts the mean by c and leaves the variance
	// unchanged.
	f := func(raw []float64, c float64) bool {
		if len(raw) < 2 || math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.Abs(x) > 1e8 {
				return true
			}
		}
		if math.Abs(c) > 1e8 {
			return true
		}
		s1 := NewSample(raw)
		shifted := make([]float64, len(raw))
		for i, x := range raw {
			shifted[i] = x + c
		}
		s2 := NewSample(shifted)
		m1, _ := s1.Mean()
		m2, _ := s2.Mean()
		v1, _ := s1.Variance()
		v2, _ := s2.Variance()
		scale := 1 + math.Abs(m1) + math.Abs(c)
		return math.Abs(m2-(m1+c)) < 1e-7*scale && math.Abs(v2-v1) < 1e-6*(1+v1+scale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
