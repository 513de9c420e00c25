package dist

import (
	"math"
	"testing"
)

// TestCheckFiniteDraws: a distribution whose draws overflow at some uniform
// is refused, whether it overflows on every draw or only at the extremes,
// and every family at ordinary parameters passes.
func TestCheckFiniteDraws(t *testing.T) {
	hist, err := HistogramFromCounts([]float64{37.5, 47.5, 57.5, 67.5, 77.5, 87.5}, []int{3, 12, 1, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	disc, err := NewDiscrete([]float64{-math.MaxFloat64, 0, math.MaxFloat64}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Distribution{
		Point{V: math.MaxFloat64},
		Normal{Mu: math.MaxFloat64, Sigma2: math.MaxFloat64},
		Normal{Mu: 62, Sigma2: 120},
		hist,
		disc,
		Exponential{Lambda: 1},
		Exponential{Lambda: 1e-300},
		Gamma{K: 2.5, Theta: 3},
		Uniform{A: -math.MaxFloat64 / 2, B: math.MaxFloat64 / 2},
		Weibull{Lambda: 2, K: 1.5},
		Lognormal{MuLog: 0, Sigma2Log: 1},
		Beta{Alpha: 2, BetaP: 5},
		StudentT{Nu: 3, Loc: 0, Scale: 1},
		&Mixture{Components: []Distribution{hist, Exponential{Lambda: 2}}, Weights: []float64{0.5, 0.5}},
	} {
		if err := CheckFiniteDraws(d); err != nil {
			t.Errorf("%v refused: %v", d, err)
		}
	}
	for _, d := range []Distribution{
		Uniform{A: -1e308, B: 1e308},
		Exponential{Lambda: 5e-324},
		// Finite at the middle uniform, infinite at the smallest.
		Exponential{Lambda: 1e-307},
		Lognormal{MuLog: 800, Sigma2Log: 1},
		Gamma{K: 2, Theta: 1e308},
		Weibull{Lambda: 1, K: 0.001},
		&Mixture{Components: []Distribution{Normal{Mu: 0, Sigma2: 1}, Uniform{A: -1e308, B: 1e308}, hist},
			Weights: []float64{1, 1, 1}},
	} {
		if err := CheckFiniteDraws(d); err == nil {
			t.Errorf("%v admitted", d)
		}
	}
	if x := (Exponential{Lambda: 1e-307}).Sample(randAt(0.5, 7)); math.IsInf(x, 0) {
		t.Errorf("Exponential(1e-307) at u=1/2 draws %v; the case no longer needs the extremes", x)
	}
}
