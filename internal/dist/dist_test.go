package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

// allFamilies returns one representative of every continuous family,
// including the paper's five synthetic-experiment distributions.
func allFamilies(t *testing.T) []Distribution {
	t.Helper()
	n, err := NewNormal(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExponential(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGamma(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniform(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWeibull(1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLognormal(0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return []Distribution{n, e, g, u, w, ln}
}

func TestConstructorsValidate(t *testing.T) {
	bad := []error{}
	collect := func(err error) {
		if err == nil {
			t.Error("constructor accepted invalid parameters")
			return
		}
		bad = append(bad, err)
	}
	_, err := NewNormal(0, 0)
	collect(err)
	_, err = NewNormal(math.NaN(), 1)
	collect(err)
	_, err = NewExponential(-1)
	collect(err)
	_, err = NewGamma(0, 1)
	collect(err)
	_, err = NewGamma(1, -2)
	collect(err)
	_, err = NewUniform(1, 1)
	collect(err)
	_, err = NewWeibull(1, 0)
	collect(err)
	_, err = NewLognormal(0, -1)
	collect(err)
	for _, e := range bad {
		if !errorsIsInvalid(e) {
			t.Errorf("error %v does not wrap ErrInvalidParam", e)
		}
	}
}

func errorsIsInvalid(err error) bool {
	for err != nil {
		if err == ErrInvalidParam {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestKnownMoments(t *testing.T) {
	e, _ := NewExponential(2)
	approx(t, "Exp mean", e.Mean(), 0.5, 1e-12)
	approx(t, "Exp var", e.Variance(), 0.25, 1e-12)

	g, _ := NewGamma(2, 2)
	approx(t, "Gamma mean", g.Mean(), 4, 1e-12)
	approx(t, "Gamma var", g.Variance(), 8, 1e-12)

	u, _ := NewUniform(0, 1)
	approx(t, "Uniform mean", u.Mean(), 0.5, 1e-12)
	approx(t, "Uniform var", u.Variance(), 1.0/12, 1e-12)

	// Weibull(1,1) == Exp(1).
	w, _ := NewWeibull(1, 1)
	approx(t, "Weibull(1,1) mean", w.Mean(), 1, 1e-12)
	approx(t, "Weibull(1,1) var", w.Variance(), 1, 1e-10)

	ln, _ := NewLognormal(0, 1)
	approx(t, "Lognormal mean", ln.Mean(), math.Exp(0.5), 1e-12)
	approx(t, "Lognormal var", ln.Variance(), (math.E-1)*math.E, 1e-10)
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for _, d := range allFamilies(t) {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := d.Quantile(p)
			approx(t, d.String()+" CDF(Quantile)", d.CDF(x), p, 1e-8)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	ds := allFamilies(t)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		for _, d := range ds {
			cl, ch := d.CDF(lo), d.CDF(hi)
			if cl > ch || cl < 0 || ch > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleMomentsMatch(t *testing.T) {
	r := NewRand(42)
	const n = 200000
	for _, d := range allFamilies(t) {
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		sd := math.Sqrt(d.Variance())
		if math.Abs(mean-d.Mean()) > 6*sd/math.Sqrt(n) {
			t.Errorf("%s: sample mean %g, want %g", d, mean, d.Mean())
		}
		if math.Abs(variance-d.Variance()) > 0.1*d.Variance()+0.01 {
			t.Errorf("%s: sample variance %g, want %g", d, variance, d.Variance())
		}
	}
}

func TestSampleRespectsCDF(t *testing.T) {
	// Kolmogorov-style check: empirical CDF at a few probe points must be
	// close to the analytic CDF.
	r := NewRand(7)
	const n = 100000
	for _, d := range allFamilies(t) {
		probes := []float64{d.Quantile(0.1), d.Quantile(0.5), d.Quantile(0.9)}
		counts := make([]int, len(probes))
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			for j, q := range probes {
				if x <= q {
					counts[j]++
				}
			}
		}
		for j, q := range probes {
			got := float64(counts[j]) / n
			want := d.CDF(q)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: empirical CDF(%g) = %g, want %g", d, q, got, want)
			}
		}
	}
}

func TestPointDistribution(t *testing.T) {
	p := Point{V: 3.5}
	approx(t, "Point mean", p.Mean(), 3.5, 0)
	approx(t, "Point var", p.Variance(), 0, 0)
	if p.CDF(3.4) != 0 || p.CDF(3.5) != 1 || p.CDF(4) != 1 {
		t.Error("Point CDF wrong")
	}
	if p.Quantile(0.3) != 3.5 {
		t.Error("Point quantile wrong")
	}
	r := NewRand(1)
	if p.Sample(r) != 3.5 {
		t.Error("Point sample wrong")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(100)
	same := true
	a2 := NewRand(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(5)
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
		sum += u
		buckets[int(u*10)]++
	}
	approx(t, "uniform mean", sum/n, 0.5, 0.01)
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > 600 {
			t.Errorf("bucket %d count %d far from %d", i, c, n/10)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleN(t *testing.T) {
	u, _ := NewUniform(2, 3)
	r := NewRand(1)
	xs := SampleN(u, 50, r)
	if len(xs) != 50 {
		t.Fatalf("len = %d", len(xs))
	}
	for _, x := range xs {
		if x < 2 || x >= 3 {
			t.Fatalf("sample %v outside [2,3)", x)
		}
	}
}

func TestQuantilePanicsOutsideDomain(t *testing.T) {
	n, _ := NewNormal(0, 1)
	for _, p := range []float64{0, 1, -1, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			n.Quantile(p)
		}()
	}
}
