package sketch

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func approx(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

// exactMoments computes mean and Σ(x−x̄)² directly (two-pass) as the
// reference the streaming updates must match.
func exactMoments(xs []float64) (mean, m2 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		m2 += d * d
	}
	return mean, m2
}

func sampleUniform(rng *dist.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*rng.Float64()
	}
	return xs
}

func TestMomentsMatchesExact(t *testing.T) {
	rng := dist.NewRand(11)
	for _, n := range []int{1, 2, 17, 1000} {
		xs := sampleUniform(rng, n, -50, 150)
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		wantMean, wantM2 := exactMoments(xs)
		if m.N != uint64(n) {
			t.Fatalf("n=%d: count %d", n, m.N)
		}
		approx(t, "mean", m.Mean, wantMean, 1e-9*math.Max(1, math.Abs(wantMean)))
		approx(t, "m2", m.M2, wantM2, 1e-7*math.Max(1, wantM2))
		approx(t, "sum", m.Sum(), wantMean*float64(n), 1e-7*math.Max(1, math.Abs(wantMean*float64(n))))
		approx(t, "variance", m.Variance(), wantM2/float64(n), 1e-7*math.Max(1, wantM2))
	}
}

// TestMomentsMergeEquivalence: merging the summaries of any split of a
// sequence agrees with summarizing the whole sequence (Chan's combination is
// algebraically exact; only float rounding differs).
func TestMomentsMergeEquivalence(t *testing.T) {
	rng := dist.NewRand(12)
	xs := sampleUniform(rng, 500, -10, 10)
	var whole Moments
	for _, x := range xs {
		whole.Add(x)
	}
	for _, cut := range []int{0, 1, 250, 499, 500} {
		var a, b Moments
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N != whole.N {
			t.Fatalf("cut %d: count %d vs %d", cut, a.N, whole.N)
		}
		approx(t, "merged mean", a.Mean, whole.Mean, 1e-10)
		approx(t, "merged m2", a.M2, whole.M2, 1e-7*math.Max(1, whole.M2))
	}
}

// TestMomentsMergeAssociative: ((A+B)+C) and (A+(B+C)) agree within float
// tolerance, and merging empties is the identity.
func TestMomentsMergeAssociative(t *testing.T) {
	rng := dist.NewRand(13)
	parts := [][]float64{
		sampleUniform(rng, 100, 0, 1),
		sampleUniform(rng, 37, 100, 200),
		sampleUniform(rng, 211, -5, 5),
	}
	summ := func(xs []float64) Moments {
		var m Moments
		for _, x := range xs {
			m.Add(x)
		}
		return m
	}
	a, b, c := summ(parts[0]), summ(parts[1]), summ(parts[2])
	left := a
	left.Merge(b)
	left.Merge(c)
	bc := b
	bc.Merge(c)
	right := a
	right.Merge(bc)
	approx(t, "assoc mean", left.Mean, right.Mean, 1e-10)
	approx(t, "assoc m2", left.M2, right.M2, 1e-6*math.Max(1, left.M2))

	var empty Moments
	before := a
	a.Merge(empty)
	if a != before {
		t.Error("merging an empty summary changed state")
	}
	empty.Merge(a)
	if empty != a {
		t.Error("merging into an empty summary did not copy")
	}
}

func TestMomentsValidate(t *testing.T) {
	good := Moments{N: 3, Mean: 1, M2: 2}
	if err := good.validate(); err != nil {
		t.Errorf("valid moments rejected: %v", err)
	}
	bad := []Moments{
		{N: 1, Mean: math.NaN()},
		{N: 1, M2: math.Inf(1)},
		{N: 2, Mean: 0, M2: -1},
		{N: 0, Mean: 5},
	}
	for i, m := range bad {
		if err := m.validate(); err == nil {
			t.Errorf("bad moments %d accepted", i)
		}
	}
}

// TestProbMomentsEstimators pins the McGregor–Muthukrishnan identity: the
// accumulator is exactly the partial sum of the per-tuple contributions.
func TestProbMomentsEstimators(t *testing.T) {
	type tuple struct{ x, p float64 }
	tuples := []tuple{
		{10, 1}, {20, 0.5}, {-3, 0.25}, {7, 0.9}, {0, 0},
	}
	var pm ProbMoments
	var sumP1PX2 float64
	for _, tp := range tuples {
		pm.Add(tp.x, tp.p)
		sumP1PX2 += tp.p * (1 - tp.p) * tp.x * tp.x
	}
	if pm.N != uint64(len(tuples)) {
		t.Fatalf("count %d", pm.N)
	}
	// Same accumulation order, so the sum is bit-identical.
	if pm.SumP1PX2 != sumP1PX2 {
		t.Errorf("accumulator diverges from the direct sum: %+v", pm)
	}
}

// TestProbMomentsMergeIsAddition: merge is field-wise addition, so any
// split-merge agrees with the sequential accumulation within rounding.
func TestProbMomentsMergeIsAddition(t *testing.T) {
	rng := dist.NewRand(15)
	var whole, a, b ProbMoments
	for i := 0; i < 400; i++ {
		x, p := rng.Float64()*100-50, rng.Float64()
		whole.Add(x, p)
		if i < 123 {
			a.Add(x, p)
		} else {
			b.Add(x, p)
		}
	}
	a.Merge(b)
	if a.N != whole.N {
		t.Fatalf("count %d vs %d", a.N, whole.N)
	}
	approx(t, "SumP1PX2", a.SumP1PX2, whole.SumP1PX2, 1e-6)
}

// TestProbMomentsCertainStream: with every p = 1 the membership variance
// vanishes — the AVG/SUM widening term is zero, so certain streams pay nothing for the probabilistic model.
func TestProbMomentsCertainStream(t *testing.T) {
	var pm ProbMoments
	for i := 0; i < 10; i++ {
		pm.Add(float64(i), 1)
	}
	if pm.SumP1PX2 != 0 {
		t.Fatalf("certain stream accumulated membership variance: %+v", pm)
	}
	half, err := pm.MembershipHalfWidth(1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if half != 0 {
		t.Errorf("certain membership half-width %v, want 0", half)
	}
}

func TestProbMomentsErrors(t *testing.T) {
	var pm ProbMoments
	pm.Add(1, 0.5)
	if _, err := pm.MembershipHalfWidth(1, 1.5); err == nil {
		t.Error("bad level: want error")
	}
	if _, err := pm.MembershipHalfWidth(1, -1); err == nil {
		t.Error("bad level: want error")
	}
}

func TestProbMomentsValidate(t *testing.T) {
	var pm ProbMoments
	pm.Add(3, 0.5)
	if err := pm.validate(); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	bad := []ProbMoments{
		{N: 1, SumP1PX2: math.NaN()},
		{N: 1, SumP1PX2: math.Inf(1)},
		{N: 1, SumP1PX2: -0.5},
	}
	for i, b := range bad {
		if err := b.validate(); err == nil {
			t.Errorf("bad state %d accepted", i)
		}
	}
}
