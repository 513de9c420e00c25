package randvar

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func normField(t *testing.T, mu, s2 float64, n int) Field {
	t.Helper()
	d, err := dist.NewNormal(mu, s2)
	if err != nil {
		t.Fatal(err)
	}
	return Field{Dist: d, N: n}
}

func TestDetField(t *testing.T) {
	f := Det(4.5)
	if !f.IsDet() {
		t.Error("Det field not recognized as deterministic")
	}
	if err := f.Validate(); err != nil {
		t.Error(err)
	}
	if (Field{}).Validate() == nil {
		t.Error("nil distribution: want error")
	}
	if (Field{Dist: dist.Point{V: 1}, N: -1}).Validate() == nil {
		t.Error("negative N: want error")
	}
}

func TestDFSampleSize(t *testing.T) {
	// Example 4: sizes 15 and 10 → 10; deterministic inputs don't count.
	a := normField(t, 0, 1, 15)
	b := normField(t, 0, 1, 10)
	if n := DFSampleSize(a, b); n != 10 {
		t.Errorf("d.f. size = %d, want 10", n)
	}
	if n := DFSampleSize(a, Det(3)); n != 15 {
		t.Errorf("d.f. size with det = %d, want 15", n)
	}
	if n := DFSampleSize(Det(1), Det(2)); n != 0 {
		t.Errorf("all-det d.f. size = %d, want 0", n)
	}
}

func TestApplyAllDeterministic(t *testing.T) {
	e := NewEvaluator(dist.NewRand(1))
	res, err := e.Apply(func(a []float64) (float64, error) {
		return (a[0] + a[1]) / 2, nil
	}, Det(10), Det(20))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Field.IsDet() {
		t.Error("det inputs must give det output")
	}
	approx(t, "det apply", res.Field.Dist.Mean(), 15, 1e-12)
	if res.Values != nil {
		t.Error("det path must not produce a value sequence")
	}
}

func TestApplyMonteCarlo(t *testing.T) {
	e := NewEvaluator(dist.NewRand(42))
	a := normField(t, 10, 4, 15)
	b := normField(t, 20, 9, 10)
	// (A+B)/2 — Example 4's expression.
	res, err := e.Apply(func(v []float64) (float64, error) {
		return (v[0] + v[1]) / 2, nil
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Field.N != 10 {
		t.Errorf("output d.f. size = %d, want 10", res.Field.N)
	}
	if len(res.Values) < 900 {
		t.Errorf("value sequence length %d, want ≈1000", len(res.Values))
	}
	approx(t, "MC mean", res.Field.Dist.Mean(), 15, 0.3)
	// Var((A+B)/2) = (4+9)/4 = 3.25.
	approx(t, "MC variance", res.Field.Dist.Variance(), 3.25, 0.8)
}

func TestApplyValidation(t *testing.T) {
	e := NewEvaluator(dist.NewRand(1))
	if _, err := e.Apply(nil, Det(1)); err == nil {
		t.Error("nil func: want error")
	}
	if _, err := e.Apply(func(a []float64) (float64, error) { return 0, nil }); err == nil {
		t.Error("no fields: want error")
	}
	if _, err := e.Apply(func(a []float64) (float64, error) { return 0, nil }, Field{}); err == nil {
		t.Error("invalid field: want error")
	}
	// A function erroring propagates.
	wantErr := errors.New("boom")
	_, err := e.Apply(func(a []float64) (float64, error) { return 0, wantErr }, Det(1), normField(t, 0, 1, 5))
	if !errors.Is(err, wantErr) {
		t.Errorf("got %v, want boom", err)
	}
}

func TestApplySkipsNonFinite(t *testing.T) {
	e := NewEvaluator(dist.NewRand(3))
	a := normField(t, 0, 1, 20)
	res, err := e.Apply(func(v []float64) (float64, error) {
		if v[0] < 0 {
			return math.NaN(), nil // half the draws are dropped
		}
		return v[0], nil
	}, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Values {
		if x < 0 || math.IsNaN(x) {
			t.Fatal("non-finite or dropped value leaked into sequence")
		}
	}
	if len(res.Values) < 300 || len(res.Values) > 700 {
		t.Errorf("kept %d values, want ≈500", len(res.Values))
	}
	// All values dropped → error.
	if _, err := e.Apply(func([]float64) (float64, error) {
		return math.Inf(1), nil
	}, a); err == nil {
		t.Error("all-inf expression: want error")
	}
}

func TestLinearGaussianClosedForm(t *testing.T) {
	a := normField(t, 10, 4, 15)
	b := normField(t, 20, 9, 10)
	// 0.5A + 0.5B + 1.
	f, ok, err := LinearGaussian([]float64{0.5, 0.5}, 1, a, b)
	if err != nil || !ok {
		t.Fatalf("closed form failed: %v, ok=%v", err, ok)
	}
	nd, isNorm := f.Dist.(dist.Normal)
	if !isNorm {
		t.Fatalf("result %T, want Normal", f.Dist)
	}
	approx(t, "closed-form mean", nd.Mu, 16, 1e-12)
	approx(t, "closed-form var", nd.Sigma2, 0.25*4+0.25*9, 1e-12)
	if f.N != 10 {
		t.Errorf("d.f. size = %d, want 10", f.N)
	}
}

func TestLinearGaussianFallsBack(t *testing.T) {
	h, err := dist.HistogramFromCounts([]float64{0, 1, 2}, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := LinearGaussian([]float64{1}, 0, Field{Dist: h, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("histogram input must not take the Gaussian closed form")
	}
	if _, _, err := LinearGaussian([]float64{1, 2}, 0, Det(1)); err == nil {
		t.Error("weight/field length mismatch: want error")
	}
}

func TestLinearGaussianDegenerate(t *testing.T) {
	// Points only → point result.
	f, ok, err := LinearGaussian([]float64{2, 3}, 1, Det(1), Det(2))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if !f.IsDet() {
		t.Error("all-point closed form should be deterministic")
	}
	approx(t, "point result", f.Dist.Mean(), 2*1+3*2+1, 1e-12)
}

func TestDivisionByZeroDraws(t *testing.T) {
	e := NewEvaluator(dist.NewRand(2))
	a := normField(t, 1, 0.01, 20)
	zeroish := Det(0)
	// X / 0 produces only non-finite draws → error, not a crash.
	div := func(v []float64) (float64, error) { return v[0] / v[1], nil }
	if _, err := e.Apply(div, a, zeroish); err == nil {
		t.Error("division by exact zero: want error")
	}
}
