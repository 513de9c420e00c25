package learn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
)

// WeightedSample implements the paper's stated future work (§VII): "using
// samples of different weights to quantify the accuracy of probability
// distributions ... observations that are obtained more recently can have
// more weights in determining the accuracy information."
//
// Each observation carries a positive weight. Statistics are
// weight-normalized, and the accuracy of anything learned from the sample
// is governed by Kish's effective sample size
//
//	n_eff = (Σ wᵢ)² / Σ wᵢ²,
//
// which equals n for equal weights and shrinks toward 1 as the weights
// concentrate — plugging n_eff into Lemmas 1–2 generalizes the paper's
// accuracy machinery to weighted observations.
type WeightedSample struct {
	obs     []float64
	weights []float64
}

// ErrBadWeight reports a non-positive or non-finite weight.
var ErrBadWeight = errors.New("learn: weights must be positive and finite")

// NewWeightedSample builds a weighted sample; obs and weights must have
// equal length and every weight must be positive.
func NewWeightedSample(obs, weights []float64) (*WeightedSample, error) {
	if len(obs) != len(weights) {
		return nil, fmt.Errorf("learn: %d observations for %d weights", len(obs), len(weights))
	}
	for _, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: %v", ErrBadWeight, w)
		}
	}
	return &WeightedSample{
		obs:     append([]float64(nil), obs...),
		weights: append([]float64(nil), weights...),
	}, nil
}

// Size returns the raw number of observations.
func (s *WeightedSample) Size() int { return len(s.obs) }

// EffectiveSize returns Kish's effective sample size
// n_eff = (Σw)²/Σw² — the n to feed into the accuracy lemmas.
func (s *WeightedSample) EffectiveSize() float64 {
	if len(s.obs) == 0 {
		return 0
	}
	sum, sum2 := 0.0, 0.0
	for _, w := range s.weights {
		sum += w
		sum2 += w * w
	}
	return sum * sum / sum2
}

// EffectiveSizeInt returns the effective size rounded down for APIs that
// take integer sample sizes, floored at 1 when any observation exists.
func (s *WeightedSample) EffectiveSizeInt() int {
	n := int(s.EffectiveSize())
	if n < 1 && len(s.obs) > 0 {
		n = 1
	}
	return n
}

// Mean returns the weighted mean Σwx / Σw.
func (s *WeightedSample) Mean() (float64, error) {
	if len(s.obs) == 0 {
		return 0, ErrEmptySample
	}
	num, den := 0.0, 0.0
	for i, x := range s.obs {
		num += s.weights[i] * x
		den += s.weights[i]
	}
	return num / den, nil
}

// Variance returns the weighted variance with the standard
// frequency-weight bias correction based on the effective sample size:
// Σw(x−x̄)²/Σw · n_eff/(n_eff−1). It requires n_eff > 1.
func (s *WeightedSample) Variance() (float64, error) {
	neff := s.EffectiveSize()
	if neff <= 1 {
		return 0, fmt.Errorf("learn: weighted variance needs effective size > 1, have %.3g", neff)
	}
	mean, err := s.Mean()
	if err != nil {
		return 0, err
	}
	num, den := 0.0, 0.0
	for i, x := range s.obs {
		d := x - mean
		num += s.weights[i] * d * d
		den += s.weights[i]
	}
	return (num / den) * neff / (neff - 1), nil
}

// StdDev returns the weighted standard deviation.
func (s *WeightedSample) StdDev() (float64, error) {
	v, err := s.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// ExponentialDecay builds the paper's motivating weighting: observation i
// with age ageᵢ (any non-negative unit — seconds, window slots) gets
// weight exp(−λ·ageᵢ). halfLife sets λ = ln2/halfLife.
func ExponentialDecay(obs, ages []float64, halfLife float64) (*WeightedSample, error) {
	if len(obs) != len(ages) {
		return nil, fmt.Errorf("learn: %d observations for %d ages", len(obs), len(ages))
	}
	if halfLife <= 0 || math.IsNaN(halfLife) {
		return nil, fmt.Errorf("learn: half-life %v must be positive", halfLife)
	}
	lambda := math.Ln2 / halfLife
	weights := make([]float64, len(ages))
	for i, a := range ages {
		if a < 0 || math.IsNaN(a) {
			return nil, fmt.Errorf("learn: negative age %v", a)
		}
		weights[i] = math.Exp(-lambda * a)
	}
	return NewWeightedSample(obs, weights)
}

// WeightedGaussianLearner fits a normal distribution to a weighted sample.
// Learn-style helper returning both the distribution and the effective
// sample size for accuracy tracking.
func WeightedGaussianLearner(s *WeightedSample) (dist.Distribution, int, error) {
	if s == nil || s.Size() == 0 {
		return nil, 0, ErrEmptySample
	}
	mean, err := s.Mean()
	if err != nil {
		return nil, 0, err
	}
	neff := s.EffectiveSizeInt()
	v, err := s.Variance()
	if err != nil {
		// Effective size ≤ 1: degenerate point estimate.
		return dist.Point{V: mean}, neff, nil
	}
	if v == 0 {
		return dist.Point{V: mean}, neff, nil
	}
	nd, err := dist.NewNormal(mean, v)
	if err != nil {
		return nil, 0, err
	}
	return nd, neff, nil
}

// WeightedHistogramLearner bins a weighted sample over [lo, hi) with the
// given number of buckets, returning the histogram (weighted bucket
// probabilities) and the effective sample size. Observations outside the
// range are clamped into the boundary buckets, matching HistogramLearner.
func WeightedHistogramLearner(s *WeightedSample, bins int, lo, hi float64) (*dist.Histogram, int, error) {
	if s == nil || s.Size() == 0 {
		return nil, 0, ErrEmptySample
	}
	if bins < 1 {
		return nil, 0, fmt.Errorf("learn: histogram needs ≥ 1 bin, have %d", bins)
	}
	if !(lo < hi) {
		return nil, 0, fmt.Errorf("learn: histogram range [%v, %v] invalid", lo, hi)
	}
	edges := make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(bins)
	}
	edges[bins] = hi
	probs := make([]float64, bins)
	w := (hi - lo) / float64(bins)
	total := 0.0
	for i, x := range s.obs {
		idx := int((x - lo) / w)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		probs[idx] += s.weights[i]
		total += s.weights[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	h, err := dist.NewHistogram(edges, probs)
	if err != nil {
		return nil, 0, err
	}
	return h, s.EffectiveSizeInt(), nil
}
