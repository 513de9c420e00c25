package dist

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is the paper's primary distribution representation: a set of
// contiguous buckets {(bᵢ, pᵢ)} where bucket i covers [Edges[i], Edges[i+1])
// and carries probability Probs[i] (§II-B). Within a bucket, mass is spread
// uniformly, so the histogram is a mixture of uniform distributions — the
// usual continuous-histogram semantics in the uncertain-database literature.
//
// Counts preserves the raw per-bucket observation counts when the histogram
// was learned from a sample; accuracy computations (Lemma 1) need the sample
// size but not the raw observations.
//
// The constructors also build a prefix table of Probs, which Sample searches
// for a draw's bucket; Probs must not be changed afterwards. A histogram
// built as a literal has no table and samples the same buckets without it.
type Histogram struct {
	Edges  []float64 // len b+1, strictly increasing
	Probs  []float64 // len b, non-negative, sums to 1
	Counts []int     // len b or nil; raw observation counts if learned
	cum    []float64 // prefixSums(Probs), or nil for a literal
}

// NewHistogram builds a histogram from bucket edges and probabilities,
// validating shape, monotone edges, non-negative probabilities, and unit
// total mass (up to rounding). The probabilities are normalized exactly.
func NewHistogram(edges, probs []float64) (*Histogram, error) {
	if len(edges) != len(probs)+1 || len(probs) == 0 {
		return nil, fmt.Errorf("%w: histogram needs len(edges) == len(probs)+1 ≥ 2, got %d and %d",
			ErrInvalidParam, len(edges), len(probs))
	}
	total := 0.0
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("%w: histogram bucket %d has probability %v", ErrInvalidParam, i, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("%w: histogram probabilities sum to %v, want 1", ErrInvalidParam, total)
	}
	for i := 0; i+1 < len(edges); i++ {
		if !(edges[i] < edges[i+1]) {
			return nil, fmt.Errorf("%w: histogram edges not strictly increasing at %d", ErrInvalidParam, i)
		}
	}
	h := &Histogram{
		Edges: append([]float64(nil), edges...),
		Probs: append([]float64(nil), probs...),
	}
	for i := range h.Probs {
		h.Probs[i] /= total
	}
	h.cum = prefixSums(h.Probs)
	return h, nil
}

// RestoreHistogram rebuilds a serialized histogram from its exact
// normalized probabilities: they must already sum to 1 (within rounding)
// and are preserved bit-for-bit (NewHistogram's renormalization would
// perturb them by an ulp, breaking bit-identical recovery).
func RestoreHistogram(edges, probs []float64) (*Histogram, error) {
	if len(edges) != len(probs)+1 || len(probs) == 0 {
		return nil, fmt.Errorf("%w: histogram needs len(edges) == len(probs)+1 ≥ 2, got %d and %d",
			ErrInvalidParam, len(edges), len(probs))
	}
	total := 0.0
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return nil, fmt.Errorf("%w: histogram bucket %d has probability %v", ErrInvalidParam, i, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("%w: restored histogram mass %v, want 1", ErrInvalidParam, total)
	}
	for i := 0; i+1 < len(edges); i++ {
		if !(edges[i] < edges[i+1]) {
			return nil, fmt.Errorf("%w: histogram edges not strictly increasing at %d", ErrInvalidParam, i)
		}
	}
	return &Histogram{
		Edges: append([]float64(nil), edges...),
		Probs: append([]float64(nil), probs...),
		cum:   prefixSums(probs),
	}, nil
}

// HistogramFromCounts builds a histogram whose bucket probabilities are the
// empirical frequencies counts[i]/n; this is how the database learns a
// histogram distribution from a raw sample (§I). The counts are retained so
// Lemma 1 can compute bin-height confidence intervals later.
func HistogramFromCounts(edges []float64, counts []int) (*Histogram, error) {
	if len(edges) != len(counts)+1 || len(counts) == 0 {
		return nil, fmt.Errorf("%w: histogram needs len(edges) == len(counts)+1 ≥ 2", ErrInvalidParam)
	}
	n := 0
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("%w: bucket %d has negative count", ErrInvalidParam, i)
		}
		n += c
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: histogram from zero observations", ErrInvalidParam)
	}
	probs := make([]float64, len(counts))
	for i, c := range counts {
		probs[i] = float64(c) / float64(n)
	}
	h, err := NewHistogram(edges, probs)
	if err != nil {
		return nil, err
	}
	h.Counts = append([]int(nil), counts...)
	return h, nil
}

// NumBuckets returns the number of buckets b.
func (h *Histogram) NumBuckets() int { return len(h.Probs) }

// SampleSize returns the total observation count when the histogram was
// learned from data, or 0 when it was specified directly.
func (h *Histogram) SampleSize() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean returns the expectation under the mixture-of-uniforms semantics.
func (h *Histogram) Mean() float64 {
	m := 0.0
	for i, p := range h.Probs {
		m += p * (h.Edges[i] + h.Edges[i+1]) / 2
	}
	return m
}

// Variance returns the variance under the mixture-of-uniforms semantics.
func (h *Histogram) Variance() float64 {
	mean := h.Mean()
	v := 0.0
	for i, p := range h.Probs {
		lo, hi := h.Edges[i], h.Edges[i+1]
		mid := (lo + hi) / 2
		w := hi - lo
		// E[X²] of Uniform[lo,hi] = mid² + w²/12.
		v += p * (mid*mid + w*w/12)
	}
	return v - mean*mean
}

// CDF returns P(X ≤ x), piecewise linear across buckets.
func (h *Histogram) CDF(x float64) float64 {
	if x <= h.Edges[0] {
		return 0
	}
	last := len(h.Edges) - 1
	if x >= h.Edges[last] {
		return 1
	}
	// Find the bucket containing x.
	i := sort.SearchFloat64s(h.Edges, x) - 1
	if i < 0 {
		i = 0
	}
	if h.Edges[i+1] <= x { // x exactly on an edge lands in the next bucket
		i++
	}
	cum := 0.0
	for j := 0; j < i; j++ {
		cum += h.Probs[j]
	}
	frac := (x - h.Edges[i]) / (h.Edges[i+1] - h.Edges[i])
	return cum + frac*h.Probs[i]
}

// Quantile returns the p-quantile by walking the cumulative bucket masses.
func (h *Histogram) Quantile(p float64) float64 {
	checkProbPanic(p)
	cum := 0.0
	for i, pi := range h.Probs {
		if cum+pi >= p {
			if pi == 0 {
				return h.Edges[i]
			}
			frac := (p - cum) / pi
			return h.Edges[i] + frac*(h.Edges[i+1]-h.Edges[i])
		}
		cum += pi
	}
	return h.Edges[len(h.Edges)-1]
}

// Sample draws a bucket by probability (see pick), then a uniform point
// within it.
func (h *Histogram) Sample(r *Rand) float64 {
	i := pick(h.cum, h.Probs, r.Float64())
	return h.Edges[i] + r.Float64()*(h.Edges[i+1]-h.Edges[i])
}

// BucketProb returns the probability of bucket i.
func (h *Histogram) BucketProb(i int) float64 { return h.Probs[i] }

// Bucket returns the half-open interval [lo, hi) of bucket i.
func (h *Histogram) Bucket(i int) (lo, hi float64) {
	return h.Edges[i], h.Edges[i+1]
}

// BucketIndex returns the index of the bucket containing x, or -1 when x is
// outside the histogram's support.
func (h *Histogram) BucketIndex(x float64) int {
	if x < h.Edges[0] || x > h.Edges[len(h.Edges)-1] {
		return -1
	}
	if x == h.Edges[len(h.Edges)-1] {
		return len(h.Probs) - 1
	}
	i := sort.SearchFloat64s(h.Edges, x) - 1
	if i < 0 {
		i = 0
	}
	if h.Edges[i+1] <= x {
		i++
	}
	return i
}

func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Histogram{%d buckets on [%g, %g]", len(h.Probs), h.Edges[0], h.Edges[len(h.Edges)-1])
	if n := h.SampleSize(); n > 0 {
		fmt.Fprintf(&b, ", n=%d", n)
	}
	b.WriteByte('}')
	return b.String()
}
