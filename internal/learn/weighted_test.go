package learn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func TestNewWeightedSampleValidation(t *testing.T) {
	if _, err := NewWeightedSample([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewWeightedSample([]float64{1}, []float64{w}); err == nil {
			t.Errorf("weight %v: want error", w)
		}
	}
}

func TestEqualWeightsMatchPlainSample(t *testing.T) {
	obs := []float64{71, 56, 82, 74, 69, 77, 65, 78, 59, 80}
	weights := make([]float64, len(obs))
	for i := range weights {
		weights[i] = 3.5 // any equal weight
	}
	ws, err := NewWeightedSample(obs, weights)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewSample(obs)
	wm, _ := ws.Mean()
	pm, _ := plain.Mean()
	approx(t, "weighted mean", wm, pm, 1e-12)
	wv, _ := ws.Variance()
	pv, _ := plain.Variance()
	approx(t, "weighted variance", wv, pv, 1e-9)
	approx(t, "effective size", ws.EffectiveSize(), 10, 1e-9)
	if ws.EffectiveSizeInt() != 10 {
		t.Errorf("EffectiveSizeInt = %d", ws.EffectiveSizeInt())
	}
}

func TestEffectiveSizeShrinksWithSkew(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 5}
	balanced, _ := NewWeightedSample(obs, []float64{1, 1, 1, 1, 1})
	skewed, _ := NewWeightedSample(obs, []float64{100, 1, 1, 1, 1})
	if skewed.EffectiveSize() >= balanced.EffectiveSize() {
		t.Errorf("skewed n_eff %g should be below balanced %g",
			skewed.EffectiveSize(), balanced.EffectiveSize())
	}
	if skewed.EffectiveSize() < 1 {
		t.Errorf("n_eff %g below 1", skewed.EffectiveSize())
	}
	// A single extreme weight drives n_eff toward 1.
	if skewed.EffectiveSize() > 1.2 {
		t.Errorf("n_eff %g should approach 1 with one dominant weight", skewed.EffectiveSize())
	}
}

func TestWeightedMeanPullsTowardHeavyObservations(t *testing.T) {
	s, _ := NewWeightedSample([]float64{0, 10}, []float64{1, 3})
	m, err := s.Mean()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "weighted mean", m, 7.5, 1e-12)
}

func TestWeightedVarianceNeedsEffectiveSize(t *testing.T) {
	s, _ := NewWeightedSample([]float64{5}, []float64{1})
	if _, err := s.Variance(); err == nil {
		t.Error("n_eff = 1: want error")
	}
	empty := &WeightedSample{}
	if _, err := empty.Mean(); err == nil {
		t.Error("empty: want error")
	}
	if empty.EffectiveSize() != 0 {
		t.Error("empty effective size should be 0")
	}
}

func TestExponentialDecay(t *testing.T) {
	obs := []float64{10, 20, 30}
	ages := []float64{0, 60, 120} // seconds
	s, err := ExponentialDecay(obs, ages, 60)
	if err != nil {
		t.Fatal(err)
	}
	w := s.weights
	approx(t, "age 0 weight", w[0], 1, 1e-12)
	approx(t, "age 60 weight", w[1], 0.5, 1e-12) // one half-life
	approx(t, "age 120 weight", w[2], 0.25, 1e-12)
	// Recency weighting pulls the mean toward the newest observation.
	m, _ := s.Mean()
	plainMean := (10.0 + 20 + 30) / 3
	if m >= plainMean {
		t.Errorf("decayed mean %g should be below unweighted %g", m, plainMean)
	}
	if _, err := ExponentialDecay(obs, ages[:2], 60); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := ExponentialDecay(obs, ages, 0); err == nil {
		t.Error("zero half-life: want error")
	}
	if _, err := ExponentialDecay(obs, []float64{0, -1, 2}, 60); err == nil {
		t.Error("negative age: want error")
	}
}

func TestWeightedGaussianLearner(t *testing.T) {
	obs := []float64{71, 56, 82, 74, 69, 77, 65, 78, 59, 80}
	weights := make([]float64, len(obs))
	for i := range weights {
		weights[i] = 1
	}
	ws, _ := NewWeightedSample(obs, weights)
	d, n, err := WeightedGaussianLearner(ws)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("n_eff = %d, want 10", n)
	}
	approx(t, "weighted learn mean", d.Mean(), 71.1, 1e-9)
	// Degenerate: one dominant weight → point.
	one, _ := NewWeightedSample([]float64{5}, []float64{2})
	d, n, err = WeightedGaussianLearner(one)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(dist.Point); !ok || n != 1 {
		t.Errorf("degenerate learn: %T, n=%d", d, n)
	}
	if _, _, err := WeightedGaussianLearner(nil); err == nil {
		t.Error("nil sample: want error")
	}
}

func TestWeightedHistogramLearner(t *testing.T) {
	ws, _ := NewWeightedSample([]float64{1, 1, 9}, []float64{1, 1, 2})
	h, n, err := WeightedHistogramLearner(ws, 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket [0,5): weight 2 of 4 → 0.5; bucket [5,10): 0.5.
	approx(t, "bucket 0", h.BucketProb(0), 0.5, 1e-12)
	approx(t, "bucket 1", h.BucketProb(1), 0.5, 1e-12)
	if n < 1 || n > 3 {
		t.Errorf("n_eff = %d", n)
	}
	if _, _, err := WeightedHistogramLearner(ws, 0, 0, 10); err == nil {
		t.Error("0 bins: want error")
	}
	if _, _, err := WeightedHistogramLearner(ws, 2, 5, 5); err == nil {
		t.Error("bad range: want error")
	}
	if _, _, err := WeightedHistogramLearner(nil, 2, 0, 10); err == nil {
		t.Error("nil sample: want error")
	}
}

// TestDecayImprovesDriftedEstimates is the future-work ablation: under
// distribution drift, exponentially decayed samples estimate the *current*
// mean better than plain averaging.
func TestDecayImprovesDriftedEstimates(t *testing.T) {
	rng := dist.NewRand(6)
	const n = 200
	trials := 300
	decayBetter := 0
	for trial := 0; trial < trials; trial++ {
		obs := make([]float64, n)
		ages := make([]float64, n)
		for i := 0; i < n; i++ {
			age := float64(n - 1 - i)
			// The true mean drifts from 0 (old) to 10 (now).
			mu := 10 - age*10/float64(n)
			obs[i] = mu + 2*rng.NormFloat64()
			ages[i] = age
		}
		ws, err := ExponentialDecay(obs, ages, 20)
		if err != nil {
			t.Fatal(err)
		}
		wm, _ := ws.Mean()
		pm, _ := NewSample(obs).Mean()
		if math.Abs(wm-10) < math.Abs(pm-10) {
			decayBetter++
		}
	}
	if decayBetter < trials*9/10 {
		t.Errorf("decay better only %d/%d times under drift", decayBetter, trials)
	}
}

// TestWeightedStatsProperty: scaling all weights by a constant changes
// nothing (weights are relative).
func TestWeightedStatsProperty(t *testing.T) {
	f := func(raw []float64, scaleSeed uint8) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		obs := make([]float64, len(raw))
		weights := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			obs[i] = math.Mod(x, 1000)
			weights[i] = 0.5 + math.Mod(math.Abs(x), 3)
		}
		scale := 0.25 * float64(scaleSeed%16+1)
		s1, err := NewWeightedSample(obs, weights)
		if err != nil {
			return false
		}
		scaled := make([]float64, len(weights))
		for i, w := range weights {
			scaled[i] = w * scale
		}
		s2, err := NewWeightedSample(obs, scaled)
		if err != nil {
			return false
		}
		m1, e1 := s1.Mean()
		m2, e2 := s2.Mean()
		if e1 != nil || e2 != nil {
			return false
		}
		n1, n2 := s1.EffectiveSize(), s2.EffectiveSize()
		return math.Abs(m1-m2) < 1e-9*(1+math.Abs(m1)) &&
			math.Abs(n1-n2) < 1e-9*(1+n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
