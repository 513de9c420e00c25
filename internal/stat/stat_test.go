package stat

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

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{2.5758293035489004, 0.995},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		approx(t, "NormCDF", NormCDF(c.x), c.want, 1e-12)
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.05, -1.6448536269514722},
		{0.995, 2.5758293035489004},
		{0.9999, 3.719016485455709},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		approx(t, "NormQuantile", NormQuantile(c.p), c.want, 1e-9)
	}
}

func TestNormQuantileExtremes(t *testing.T) {
	if got := NormQuantile(0); !math.IsInf(got, -1) {
		t.Errorf("NormQuantile(0) = %g, want -Inf", got)
	}
	if got := NormQuantile(1); !math.IsInf(got, 1) {
		t.Errorf("NormQuantile(1) = %g, want +Inf", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NormQuantile(-0.1) did not panic")
		}
	}()
	NormQuantile(-0.1)
}

func TestNormRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01 // p in [0.01, 0.99]
		x := NormQuantile(p)
		return math.Abs(NormCDF(x)-p) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZUpper(t *testing.T) {
	// Paper Example 2: z_{0.05} = 1.645.
	approx(t, "ZUpper(0.05)", ZUpper(0.05), 1.6448536269514722, 1e-9)
	approx(t, "ZUpper(0.025)", ZUpper(0.025), 1.959963984540054, 1e-9)
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := GammaP(1, x)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "GammaP(1,x)", got, 1-math.Exp(-x), 1e-12)
	}
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2, 4} {
		got, err := GammaP(0.5, x)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "GammaP(0.5,x)", got, math.Erf(math.Sqrt(x)), 1e-12)
	}
}

func TestGammaPDomain(t *testing.T) {
	if _, err := GammaP(-1, 1); err == nil {
		t.Error("GammaP(-1,1): want error")
	}
	if _, err := GammaP(1, -1); err == nil {
		t.Error("GammaP(1,-1): want error")
	}
	if _, err := GammaP(math.NaN(), 1); err == nil {
		t.Error("GammaP(NaN,1): want error")
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1, 1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, err := BetaInc(1, 1, x)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "BetaInc(1,1,x)", got, x, 1e-12)
	}
	// I_x(2, 2) = x²(3-2x).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		got, err := BetaInc(2, 2, x)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "BetaInc(2,2,x)", got, x*x*(3-2*x), 1e-12)
	}
	// Symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
	g1, _ := BetaInc(3.5, 1.2, 0.3)
	g2, _ := BetaInc(1.2, 3.5, 0.7)
	approx(t, "beta symmetry", g1+g2, 1, 1e-12)
}

func TestBetaIncDomain(t *testing.T) {
	for _, c := range []struct{ a, b, x float64 }{
		{0, 1, 0.5}, {1, 0, 0.5}, {1, 1, -0.1}, {1, 1, 1.1}, {math.NaN(), 1, 0.5},
	} {
		if _, err := BetaInc(c.a, c.b, c.x); err == nil {
			t.Errorf("BetaInc(%v,%v,%v): want error", c.a, c.b, c.x)
		}
	}
}

func TestTCDFKnownValues(t *testing.T) {
	// t with 1 d.o.f. is Cauchy: CDF(x) = 1/2 + atan(x)/π.
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 10} {
		got, err := TCDF(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "TCDF(x,1)", got, 0.5+math.Atan(x)/math.Pi, 1e-12)
	}
	// Large df approaches normal.
	got, _ := TCDF(1.96, 1e7)
	approx(t, "TCDF(1.96,1e7)", got, NormCDF(1.96), 1e-6)
}

func TestTQuantileKnownValues(t *testing.T) {
	// Classic t-table values (upper percentile = TUpper).
	cases := []struct {
		a, df, want float64
	}{
		{0.05, 9, 1.8331129326536335}, // paper Example 3: t_{0.05}, 9 d.o.f. = 1.833
		{0.025, 9, 2.2621571627409915},
		{0.05, 19, 1.729132811521367},
		{0.005, 4, 4.604094871415897},
		{0.10, 1, 3.0776835371752527},
	}
	for _, c := range cases {
		got, err := TUpper(c.a, c.df)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "TUpper", got, c.want, 1e-8)
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 9, 29, 100} {
		for _, p := range []float64{0.01, 0.1, 0.3} {
			lo, err1 := TQuantile(p, df)
			hi, err2 := TQuantile(1-p, df)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			approx(t, "t symmetry", lo+hi, 0, 1e-10)
		}
	}
	if q, err := TQuantile(0.5, 7); err != nil || q != 0 {
		t.Errorf("TQuantile(0.5,7) = %v, %v; want 0, nil", q, err)
	}
}

func TestTRoundTrip(t *testing.T) {
	f := func(u float64, dfSeed uint8) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01
		df := float64(dfSeed%60) + 1
		x, err := TQuantile(p, df)
		if err != nil {
			return false
		}
		c, err := TCDF(x, df)
		return err == nil && math.Abs(c-p) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// χ² with 2 d.o.f. is Exp(1/2): CDF(x) = 1 - e^{-x/2}.
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		got, err := ChiSquareCDF(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "ChiSquareCDF(x,2)", got, 1-math.Exp(-x/2), 1e-12)
	}
}

func TestChiSquareQuantileKnownValues(t *testing.T) {
	// Table values; paper Example 3 uses χ²_{0.05}(9) = 16.919.
	cases := []struct {
		a, df, want float64
	}{
		{0.05, 9, 16.918977604620448},
		{0.95, 9, 3.325112843066815},
		{0.025, 9, 19.02276779864163},
		{0.975, 9, 2.7003894999803584},
		{0.05, 1, 3.841458820694124},
	}
	for _, c := range cases {
		got, err := ChiSquareUpper(c.a, c.df)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "ChiSquareUpper", got, c.want, 1e-7)
	}
}

func TestChiSquareRoundTrip(t *testing.T) {
	f := func(u float64, dfSeed uint8) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01
		df := float64(dfSeed%60) + 1
		x, err := ChiSquareQuantile(p, df)
		if err != nil {
			return false
		}
		c, err := ChiSquareCDF(x, df)
		return err == nil && math.Abs(c-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquareQuantileEdges(t *testing.T) {
	if q, err := ChiSquareQuantile(0, 5); err != nil || q != 0 {
		t.Errorf("quantile(0) = %v, %v", q, err)
	}
	if q, err := ChiSquareQuantile(1, 5); err != nil || !math.IsInf(q, 1) {
		t.Errorf("quantile(1) = %v, %v", q, err)
	}
	if _, err := ChiSquareQuantile(0.5, -1); err == nil {
		t.Error("negative df: want error")
	}
}

func TestQuantileMonotone(t *testing.T) {
	ps := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	prevN, prevT, prevC := math.Inf(-1), math.Inf(-1), -1.0
	for _, p := range ps {
		n := NormQuantile(p)
		tv, err := TQuantile(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := ChiSquareQuantile(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if n <= prevN || tv <= prevT || cv <= prevC {
			t.Fatalf("quantiles not strictly increasing at p=%v", p)
		}
		prevN, prevT, prevC = n, tv, cv
	}
}

func TestCheckProb(t *testing.T) {
	for _, p := range []float64{0.001, 0.5, 0.999} {
		if err := CheckProb(p); err != nil {
			t.Errorf("CheckProb(%v) = %v, want nil", p, err)
		}
	}
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if err := CheckProb(p); err == nil {
			t.Errorf("CheckProb(%v) = nil, want error", p)
		}
	}
}

func TestPDFsIntegrateToCDF(t *testing.T) {
	// Trapezoid-integrate each PDF and compare with the CDF as a sanity
	// check linking the densities to the distribution functions.
	integ := func(pdf func(float64) float64, lo, hi float64, n int) float64 {
		h := (hi - lo) / float64(n)
		sum := (pdf(lo) + pdf(hi)) / 2
		for i := 1; i < n; i++ {
			sum += pdf(lo + float64(i)*h)
		}
		return sum * h
	}
	normPDF := func(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
	got := integ(normPDF, -8, 1.3, 40000)
	approx(t, "∫normPDF", got, NormCDF(1.3), 1e-6)

	df := 11.0
	got = integ(func(x float64) float64 { return TPDF(x, df) }, -60, 0.7, 120000)
	want, _ := TCDF(0.7, df)
	approx(t, "∫tPDF", got, want, 1e-5)

	got = integ(func(x float64) float64 { return ChiSquarePDF(x, df) }, 0, 9, 40000)
	want, _ = ChiSquareCDF(9, df)
	approx(t, "∫chi2PDF", got, want, 1e-6)
}

func TestEdgeBranches(t *testing.T) {
	// ZUpper panics outside (0,1).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ZUpper(0) did not panic")
			}
		}()
		ZUpper(0)
	}()
	// Gamma boundary values.
	if p, err := GammaP(2, 0); err != nil || p != 0 {
		t.Errorf("GammaP(2,0) = %v, %v", p, err)
	}
	if p, err := GammaP(2, math.Inf(1)); err != nil || p != 1 {
		t.Errorf("GammaP(2,Inf) = %v, %v", p, err)
	}
	// TCDF at infinities and bad df.
	if c, err := TCDF(math.Inf(1), 5); err != nil || c != 1 {
		t.Errorf("TCDF(+Inf) = %v, %v", c, err)
	}
	if c, err := TCDF(math.Inf(-1), 5); err != nil || c != 0 {
		t.Errorf("TCDF(-Inf) = %v, %v", c, err)
	}
	if _, err := TCDF(0, -1); err == nil {
		t.Error("TCDF bad df: want error")
	}
	// TQuantile edges.
	if q, err := TQuantile(0, 5); err != nil || !math.IsInf(q, -1) {
		t.Errorf("TQuantile(0) = %v, %v", q, err)
	}
	if q, err := TQuantile(1, 5); err != nil || !math.IsInf(q, 1) {
		t.Errorf("TQuantile(1) = %v, %v", q, err)
	}
	if _, err := TQuantile(math.NaN(), 5); err == nil {
		t.Error("TQuantile(NaN): want error")
	}
	if _, err := TQuantile(0.5, 0); err == nil {
		t.Error("TQuantile df=0: want error")
	}
	if _, err := TUpper(1.5, 5); err == nil {
		t.Error("TUpper bad level: want error")
	}
	// ChiSquare edges.
	if c, err := ChiSquareCDF(-1, 5); err != nil || c != 0 {
		t.Errorf("ChiSquareCDF(-1) = %v, %v", c, err)
	}
	if _, err := ChiSquareCDF(1, -1); err == nil {
		t.Error("ChiSquareCDF bad df: want error")
	}
	if _, err := ChiSquareUpper(0, 5); err == nil {
		t.Error("ChiSquareUpper bad level: want error")
	}
	if _, err := ChiSquareQuantile(math.NaN(), 5); err == nil {
		t.Error("ChiSquareQuantile(NaN): want error")
	}
	// CheckLevel mirrors CheckProb.
	if err := CheckLevel(0.9); err != nil {
		t.Errorf("CheckLevel(0.9) = %v", err)
	}
	if err := CheckLevel(1); err == nil {
		t.Error("CheckLevel(1): want error")
	}
}

func TestKolmogorovLocal(t *testing.T) {
	// Package-local sanity for the Kolmogorov helpers (the statistical
	// behaviour is tested with the KS test in internal/hypothesis).
	if KolmogorovQ(0) != 1 {
		t.Error("Q(0) != 1")
	}
	if q := KolmogorovQ(5); q > 1e-10 {
		t.Errorf("Q(5) = %g, want ≈0", q)
	}
	if l := KolmogorovLambda(0.2, 100); math.Abs(l-(10+0.12+0.011)*0.2) > 1e-9 {
		t.Errorf("lambda = %g", l)
	}
	if KolmogorovLambda(0.2, 0) != 0 || KolmogorovLambda(-1, 100) != 0 {
		t.Error("degenerate lambda should be 0")
	}
}
