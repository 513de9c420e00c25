package dist

import (
	"math"
	"testing"
)

// first folds a joint draw into its first variate, as it is.
var first = Fold{Op: FoldFunc, F: func(a []float64) (float64, error) { return a[0], nil }}

// TestDrawOneInputMatchesSample: joint draws of one compiled input are what
// Sample draws, bit for bit, for every distribution family and row shape,
// and leave the generator where Sample leaves it, spare normal included.
func TestDrawOneInputMatchesSample(t *testing.T) {
	must := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	short := must(HistogramFromCounts([]float64{0, 1, 3, 4, 8, 9}, []int{3, 0, 7, 1, 2}))
	long := must(HistogramFromCounts([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 2, 0, 4, 5, 0, 7, 8}))
	dists := []Distribution{
		Point{V: 3},
		Point{V: math.Copysign(0, -1)},
		must(NewNormal(4, 9)),
		must(NewExponential(0.5)),
		must(NewGamma(0.6, 2)),
		must(NewGamma(3, 0.5)),
		must(NewUniform(-2, 5)),
		must(NewWeibull(1.5, 0.8)),
		must(NewLognormal(0.1, 0.4)),
		must(NewBeta(2, 3)),
		must(NewStudentT(4, 1, 2)),
		short,
		long,
		must(HistogramFromCounts([]float64{5, 6}, []int{4})),
		&Histogram{Edges: []float64{0, 2, 3}, Probs: []float64{0.25, 0.75}},
		&Histogram{Edges: []float64{0, 1, 2, 3, 4, 5, 6, 7}, Probs: []float64{1, 2, 0, 1, 3, 1, 2}},
		must(NewDiscrete([]float64{2, -1, 7}, []float64{1, 2, 3})),
		must(NewDiscrete([]float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 1, 0, 2, 1, 3, 1, 1})),
		must(NewMixture([]Distribution{must(NewNormal(0, 1)), short}, []float64{1, 2})),
	}
	for _, d := range dists {
		var j Joint
		j.Add(d)
		want, got := NewRand(11), NewRand(11)
		// Leave a spare normal behind, so the first normal draw takes it.
		want.NormFloat64()
		got.NormFloat64()
		xs, err := j.Draw(got, nil, 1000, first)
		if err != nil || len(xs) != 1000 {
			t.Fatalf("%v: %d draws, error %v", d, len(xs), err)
		}
		for i, x := range xs {
			if y := d.Sample(want); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%v: draw %d is %v, Sample %v", d, i, x, y)
			}
		}
		if want.State() != got.State() {
			t.Fatalf("%v: generator state %+v after Draw, %+v after Sample", d, got.State(), want.State())
		}
	}
}

// TestJointHistogramTables: every histogram row points at its own table in
// the Joint's current array, after the array has grown and after a Reset
// reuses it, and Reset lets go of every distribution.
func TestJointHistogramTables(t *testing.T) {
	var j Joint
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			h, err := HistogramFromCounts([]float64{float64(i), float64(i) + 1, float64(i) + 3}, []int{1 + i%3, 2})
			if err != nil {
				t.Fatal(err)
			}
			j.Add(h)
			if i%3 == 0 {
				j.Add(Exponential{Lambda: 1})
			}
		}
		for k := range j.rows {
			rw := &j.rows[k]
			if rw.kind == rowHistogram && rw.h != &j.hists[rw.i] {
				t.Fatalf("round %d: row %d points outside its table hists[%d]", round, k, rw.i)
			}
		}
		dists := j.dists
		j.Reset()
		for i, d := range dists[:cap(dists)] {
			if d != nil {
				t.Fatalf("round %d: Reset keeps distribution %d", round, i)
			}
		}
	}
}
