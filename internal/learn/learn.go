// Package learn turns raw observations into probability distributions —
// the first step of the paper's pipeline (§I): "the database system can
// learn the distributions of [an] attribute using machine learning
// techniques, ranging from simple ones such as histograms to complex ones
// such as kernel methods [and] maximum likelihood".
//
// A Sample is an iid set of observations of one random variable
// (Definition 1). Learners consume a Sample and produce a dist.Distribution;
// the sample size is retained because the accuracy of the learned
// distribution (package accuracy) is a function of it.
package learn

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
)

// ErrEmptySample is returned when an operation needs at least one
// observation.
var ErrEmptySample = errors.New("learn: empty sample")

// Sample holds iid observations X₁, …, Xₙ of a random variable
// (Definition 1 in the paper). The zero value is an empty sample.
type Sample struct {
	obs []float64
}

// NewSample returns a sample over obs. The slice is copied; the caller may
// reuse it.
func NewSample(obs []float64) *Sample {
	return &Sample{obs: append([]float64(nil), obs...)}
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.obs = append(s.obs, x) }

// Reset empties the sample, keeping its storage for the next observations.
func (s *Sample) Reset() { s.obs = s.obs[:0] }

// AddAll appends all observations in xs.
func (s *Sample) AddAll(xs []float64) { s.obs = append(s.obs, xs...) }

// Size returns the number of observations n.
func (s *Sample) Size() int { return len(s.obs) }

// Observations returns a copy of the observations.
func (s *Sample) Observations() []float64 {
	return append([]float64(nil), s.obs...)
}

// Mean returns the sample mean ȳ = (1/n) Σ Xᵢ.
func (s *Sample) Mean() (float64, error) {
	if len(s.obs) == 0 {
		return 0, ErrEmptySample
	}
	sum := 0.0
	for _, x := range s.obs {
		sum += x
	}
	return sum / float64(len(s.obs)), nil
}

// Variance returns the unbiased sample variance
// s² = (1/(n−1)) Σ (Xᵢ − ȳ)²; it requires n ≥ 2.
func (s *Sample) Variance() (float64, error) {
	if len(s.obs) < 2 {
		return 0, fmt.Errorf("learn: variance needs n ≥ 2, have %d", len(s.obs))
	}
	mean, err := s.Mean()
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, x := range s.obs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(s.obs)-1), nil
}

// StdDev returns the sample standard deviation s.
func (s *Sample) StdDev() (float64, error) {
	v, err := s.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest observation.
func (s *Sample) Min() (float64, error) {
	if len(s.obs) == 0 {
		return 0, ErrEmptySample
	}
	m := s.obs[0]
	for _, x := range s.obs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest observation.
func (s *Sample) Max() (float64, error) {
	if len(s.obs) == 0 {
		return 0, ErrEmptySample
	}
	m := s.obs[0]
	for _, x := range s.obs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the empirical p-quantile (type-7 linear interpolation,
// the R default) for p in [0, 1].
func (s *Sample) Quantile(p float64) (float64, error) {
	if len(s.obs) == 0 {
		return 0, ErrEmptySample
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("learn: quantile p=%v outside [0,1]", p)
	}
	sorted := append([]float64(nil), s.obs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac, nil
}

// Proportion returns the fraction of observations satisfying pred — the
// sample estimate of P(pred(X)), the statistic pTest's population-proportion
// test is built on.
func (s *Sample) Proportion(pred func(float64) bool) (float64, error) {
	if len(s.obs) == 0 {
		return 0, ErrEmptySample
	}
	k := 0
	for _, x := range s.obs {
		if pred(x) {
			k++
		}
	}
	return float64(k) / float64(len(s.obs)), nil
}

// --- Learners ---

// Learner turns a sample into a distribution. Implementations must record
// nothing about the sample beyond what their distribution type exposes;
// accuracy tracking needs only the sample size, which callers keep.
type Learner interface {
	// Learn fits a distribution to the sample.
	Learn(s *Sample) (dist.Distribution, error)
	// Name identifies the learner in logs and plans.
	Name() string
}

// HistogramLearner fits an equi-width histogram with Bins buckets spanning
// [Lo, Hi]. When AutoRange is true the range is taken from the sample
// (slightly widened so the max falls inside the last bucket).
type HistogramLearner struct {
	Bins      int
	Lo, Hi    float64
	AutoRange bool
}

// NewHistogramLearner returns an auto-ranging histogram learner with bins
// buckets.
func NewHistogramLearner(bins int) *HistogramLearner {
	return &HistogramLearner{Bins: bins, AutoRange: true}
}

// NewHistogramLearnerRange returns a fixed-range histogram learner.
// Observations outside [lo, hi] are clamped into the boundary buckets, which
// matches how a stream system with a known attribute domain bins readings.
func NewHistogramLearnerRange(bins int, lo, hi float64) *HistogramLearner {
	return &HistogramLearner{Bins: bins, Lo: lo, Hi: hi}
}

func (l *HistogramLearner) Name() string { return "histogram" }

// Learn bins the observations and returns a *dist.Histogram that retains the
// per-bucket counts (so Lemma 1 can compute bin-height intervals).
func (l *HistogramLearner) Learn(s *Sample) (dist.Distribution, error) {
	if s.Size() == 0 {
		return nil, ErrEmptySample
	}
	if l.Bins < 1 {
		return nil, fmt.Errorf("learn: histogram needs ≥ 1 bin, have %d", l.Bins)
	}
	lo, hi := l.Lo, l.Hi
	if l.AutoRange {
		mn, _ := s.Min()
		mx, _ := s.Max()
		lo, hi = mn, mx
		if lo == hi { // all observations identical: widen to a unit bucket
			lo -= 0.5
			hi += 0.5
		} else {
			hi += (hi - lo) * 1e-9 // place the max inside the last bucket
		}
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("learn: histogram range [%v, %v] invalid", lo, hi)
	}
	edges := make([]float64, l.Bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(l.Bins)
	}
	edges[l.Bins] = hi
	counts := make([]int, l.Bins)
	w := (hi - lo) / float64(l.Bins)
	for _, x := range s.obs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= l.Bins {
			i = l.Bins - 1
		}
		counts[i]++
	}
	return dist.HistogramFromCounts(edges, counts)
}

// GaussianLearner fits a normal distribution by maximum likelihood
// (sample mean, unbiased sample variance) — the learning step of the
// paper's throughput experiment (§V-C: "the query processor learns a
// Gaussian distribution").
type GaussianLearner struct{}

func (GaussianLearner) Name() string { return "gaussian-mle" }

func (GaussianLearner) Learn(s *Sample) (dist.Distribution, error) {
	mean, err := s.Mean()
	if err != nil {
		return nil, err
	}
	v, err := s.Variance()
	if err != nil {
		return nil, err
	}
	if v == 0 {
		// Degenerate sample: all observations equal.
		return dist.Point{V: mean}, nil
	}
	return dist.NewNormal(mean, v)
}

// EmpiricalLearner returns the empirical distribution of the sample (each
// observation with mass 1/n); the non-parametric baseline.
type EmpiricalLearner struct{}

func (EmpiricalLearner) Name() string { return "empirical" }

func (EmpiricalLearner) Learn(s *Sample) (dist.Distribution, error) {
	if s.Size() == 0 {
		return nil, ErrEmptySample
	}
	return dist.Empirical(s.obs)
}

// KDELearner fits a Gaussian kernel density estimate: a mixture of normals
// centered at the observations with Silverman's rule-of-thumb bandwidth.
// This is the paper's "kernel methods" learning option.
type KDELearner struct {
	// Bandwidth overrides Silverman's rule when > 0.
	Bandwidth float64
}

func (KDELearner) Name() string { return "kde" }

func (l KDELearner) Learn(s *Sample) (dist.Distribution, error) {
	n := s.Size()
	if n == 0 {
		return nil, ErrEmptySample
	}
	h := l.Bandwidth
	if h <= 0 {
		if n < 2 {
			h = 1
		} else {
			sd, err := s.StdDev()
			if err != nil {
				return nil, err
			}
			if sd == 0 {
				sd = 1
			}
			h = 1.06 * sd * math.Pow(float64(n), -0.2)
		}
	}
	comps := make([]dist.Distribution, n)
	weights := make([]float64, n)
	for i, x := range s.obs {
		nd, err := dist.NewNormal(x, h*h)
		if err != nil {
			return nil, err
		}
		comps[i] = nd
		weights[i] = 1
	}
	return dist.NewMixture(comps, weights)
}
