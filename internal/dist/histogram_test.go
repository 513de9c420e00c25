package dist

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustHist(t *testing.T, edges, probs []float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(edges, probs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHistogramValidation(t *testing.T) {
	cases := []struct {
		name  string
		edges []float64
		probs []float64
	}{
		{"length mismatch", []float64{0, 1}, []float64{0.5, 0.5}},
		{"empty", []float64{0}, nil},
		{"negative prob", []float64{0, 1, 2}, []float64{-0.1, 1.1}},
		{"not summing to 1", []float64{0, 1, 2}, []float64{0.3, 0.3}},
		{"non-increasing edges", []float64{0, 0, 1}, []float64{0.5, 0.5}},
		{"NaN prob", []float64{0, 1, 2}, []float64{math.NaN(), 1}},
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.edges, c.probs); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := NewHistogram([]float64{0, 1, 2}, []float64{0.25, 0.75}); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}
}

// TestHistogramBucketWidthFinite: finite edges further apart than the
// largest float64 make a bucket of infinite width, from which every draw is
// infinite or NaN. CheckFiniteDraws finds one wherever it sits, in a
// histogram or in a mixture's component, and passes the widest bucket that
// is still finite. The constructors build such a histogram, as they did
// before ingest refused it, so a journal or checkpoint holding one restores.
func TestHistogramBucketWidthFinite(t *testing.T) {
	for _, edges := range [][]float64{
		{-1e308, 1e308},
		{-1.7e308, -1e308, 1e308, 1.1e308},
		{-1.5e308, -1.4e308, -1.3e308, -1.2e308, -1.1e308, -1e308, 1e308},
		{math.Inf(-1), 0},
		{0, math.Inf(1)},
	} {
		probs := make([]float64, len(edges)-1)
		counts := make([]int, len(edges)-1)
		for i := range probs {
			probs[i], counts[i] = 1/float64(len(probs)), 1
		}
		for name, build := range map[string]func() (*Histogram, error){
			"NewHistogram":        func() (*Histogram, error) { return NewHistogram(edges, probs) },
			"RestoreHistogram":    func() (*Histogram, error) { return RestoreHistogram(edges, probs) },
			"HistogramFromCounts": func() (*Histogram, error) { return HistogramFromCounts(edges, counts) },
		} {
			h, err := build()
			if err != nil {
				t.Fatalf("%s(%v): %v", name, edges, err)
			}
			if err := CheckFiniteDraws(h); err == nil || !strings.Contains(err.Error(), "wide") {
				t.Errorf("CheckFiniteDraws(%s(%v)) = %v, want an error naming the width", name, edges, err)
			}
			m, err := NewMixture([]Distribution{Normal{Mu: 0, Sigma2: 1}, h}, []float64{1, 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckFiniteDraws(m); err == nil {
				t.Errorf("CheckFiniteDraws(mixture of %s(%v)): want error", name, edges)
			}
		}
	}
	h, err := NewHistogram([]float64{-math.MaxFloat64 / 2, math.MaxFloat64 / 2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFiniteDraws(h); err != nil {
		t.Errorf("widest finite bucket refused: %v", err)
	}
	if x := h.Sample(NewRand(1)); math.IsInf(x, 0) || math.IsNaN(x) {
		t.Errorf("draw %v from a finite bucket", x)
	}
}

func TestHistogramFromCounts(t *testing.T) {
	// Paper Example 2: n=20, four buckets with counts 3, 4, 8, 5.
	h, err := HistogramFromCounts([]float64{0, 10, 20, 30, 40}, []int{3, 4, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	wantProbs := []float64{0.15, 0.2, 0.4, 0.25}
	for i, w := range wantProbs {
		approx(t, "bucket prob", h.BucketProb(i), w, 1e-12)
	}
	if h.SampleSize() != 20 {
		t.Errorf("SampleSize = %d, want 20", h.SampleSize())
	}
	if _, err := HistogramFromCounts([]float64{0, 1}, []int{0}); err == nil {
		t.Error("zero total count: want error")
	}
	if _, err := HistogramFromCounts([]float64{0, 1, 2}, []int{-1, 2}); err == nil {
		t.Error("negative count: want error")
	}
}

func TestHistogramMoments(t *testing.T) {
	// Single bucket on [0,1] is Uniform(0,1).
	h := mustHist(t, []float64{0, 1}, []float64{1})
	approx(t, "hist mean", h.Mean(), 0.5, 1e-12)
	approx(t, "hist var", h.Variance(), 1.0/12, 1e-12)

	// Two equal buckets on [0,2]: still Uniform(0,2).
	h2 := mustHist(t, []float64{0, 1, 2}, []float64{0.5, 0.5})
	approx(t, "hist2 mean", h2.Mean(), 1, 1e-12)
	approx(t, "hist2 var", h2.Variance(), 4.0/12, 1e-12)
}

func TestHistogramCDF(t *testing.T) {
	h := mustHist(t, []float64{0, 10, 20, 30, 40}, []float64{0.15, 0.2, 0.4, 0.25})
	cases := []struct{ x, want float64 }{
		{-5, 0}, {0, 0}, {5, 0.075}, {10, 0.15}, {15, 0.25},
		{20, 0.35}, {30, 0.75}, {35, 0.875}, {40, 1}, {50, 1},
	}
	for _, c := range cases {
		approx(t, "hist CDF", h.CDF(c.x), c.want, 1e-12)
	}
}

func TestHistogramQuantileRoundTrip(t *testing.T) {
	h := mustHist(t, []float64{0, 10, 20, 30, 40}, []float64{0.15, 0.2, 0.4, 0.25})
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01
		x := h.Quantile(p)
		return math.Abs(h.CDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramSampleFrequencies(t *testing.T) {
	h := mustHist(t, []float64{0, 10, 20, 30, 40}, []float64{0.15, 0.2, 0.4, 0.25})
	r := NewRand(21)
	const n = 100000
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		x := h.Sample(r)
		idx := h.BucketIndex(x)
		if idx < 0 {
			t.Fatalf("sample %v outside support", x)
		}
		counts[idx]++
	}
	for i, p := range h.Probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("bucket %d frequency %g, want %g", i, got, p)
		}
	}
}

func TestBucketIndex(t *testing.T) {
	h := mustHist(t, []float64{0, 10, 20}, []float64{0.5, 0.5})
	cases := []struct {
		x    float64
		want int
	}{
		{-1, -1}, {0, 0}, {5, 0}, {10, 1}, {15, 1}, {20, 1}, {21, -1},
	}
	for _, c := range cases {
		if got := h.BucketIndex(c.x); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestHistogramNormalizes(t *testing.T) {
	// Probabilities within tolerance of 1 are normalized exactly.
	h := mustHist(t, []float64{0, 1, 2}, []float64{0.5000001, 0.4999999})
	total := 0.0
	for _, p := range h.Probs {
		total += p
	}
	approx(t, "normalized total", total, 1, 1e-15)
}

func TestDiscreteBasics(t *testing.T) {
	d, err := NewDiscrete([]float64{3, 1, 2, 1}, []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// Values 1 (merged 0.2+0.4=0.6), 2 (0.3), 3 (0.1).
	approx(t, "P(X=1)", d.Prob(1), 0.6, 1e-12)
	approx(t, "P(X=2)", d.Prob(2), 0.3, 1e-12)
	approx(t, "P(X=5)", d.Prob(5), 0, 0)
	approx(t, "mean", d.Mean(), 0.6*1+0.3*2+0.1*3, 1e-12)
	approx(t, "CDF(1)", d.CDF(1), 0.6, 1e-12)
	approx(t, "CDF(2.5)", d.CDF(2.5), 0.9, 1e-12)
	approx(t, "Quantile(0.6)", d.Quantile(0.6), 1, 0)
	approx(t, "Quantile(0.61)", d.Quantile(0.61), 2, 0)
}

func TestDiscreteSample(t *testing.T) {
	d, _ := NewDiscrete([]float64{0, 1}, []float64{0.3, 0.7})
	r := NewRand(17)
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Sample(r) == 1 {
			ones++
		}
	}
	approx(t, "Bernoulli frequency", float64(ones)/n, 0.7, 0.01)
}

func TestBernoulli(t *testing.T) {
	b, err := Bernoulli(0.25)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Bernoulli mean", b.Mean(), 0.25, 1e-12)
	approx(t, "Bernoulli var", b.Variance(), 0.25*0.75, 1e-12)
	for _, p := range []float64{0, 1} {
		d, err := Bernoulli(p)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "degenerate Bernoulli", d.Mean(), p, 0)
	}
	if _, err := Bernoulli(1.5); err == nil {
		t.Error("Bernoulli(1.5): want error")
	}
}

func TestEmpirical(t *testing.T) {
	obs := []float64{71, 56, 82, 74, 69, 77, 65, 78, 59, 80} // paper Example 3
	d, err := Empirical(obs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "empirical mean", d.Mean(), 71.1, 1e-9)
	if _, err := Empirical(nil); err == nil {
		t.Error("empty sample: want error")
	}
}

func TestMixture(t *testing.T) {
	n1, _ := NewNormal(0, 1)
	n2, _ := NewNormal(10, 4)
	m, err := NewMixture([]Distribution{n1, n2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Weights normalize to 0.25, 0.75.
	approx(t, "mixture mean", m.Mean(), 0.25*0+0.75*10, 1e-12)
	// Var = Σ w(σ²+μ²) − mean².
	want := 0.25*(1+0) + 0.75*(4+100) - 7.5*7.5
	approx(t, "mixture var", m.Variance(), want, 1e-12)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		x := m.Quantile(p)
		approx(t, "mixture quantile roundtrip", m.CDF(x), p, 1e-9)
	}
	r := NewRand(2)
	const n = 100000
	low := 0
	for i := 0; i < n; i++ {
		if m.Sample(r) < 5 {
			low++
		}
	}
	approx(t, "mixture sample split", float64(low)/n, m.CDF(5), 0.01)

	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture: want error")
	}
	if _, err := NewMixture([]Distribution{n1}, []float64{-1}); err == nil {
		t.Error("negative weight: want error")
	}
	if _, err := NewMixture([]Distribution{nil}, []float64{1}); err == nil {
		t.Error("nil component: want error")
	}
}
