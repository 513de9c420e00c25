// Package accuracy implements the paper's analytical accuracy methods
// (§II): confidence intervals for the parameters of learned probability
// distributions, and the rules that propagate accuracy from source data to
// query results.
//
//   - Lemma 1: bin-height intervals for histogram distributions, using the
//     normal approximation of the binomial (Wald interval) when n·p ≥ 4 and
//     n·(1−p) ≥ 4, and the Wilson score interval otherwise.
//   - Lemma 2: mean intervals (Student's t for n < 30, normal for n ≥ 30)
//     and variance intervals (chi-square), both with n−1 degrees of freedom.
//   - Definition 2 / Lemma 3: the de facto (d.f.) sample size of an output
//     random variable Y = f(X₁, …, X_d) is min nᵢ.
//   - Theorem 1: applying Lemma 1/2 to a query-result distribution with the
//     d.f. sample size as n yields the result's accuracy information; a
//     result tuple's membership probability is handled as a one-bin
//     histogram.
package accuracy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/stat"
)

// ErrSampleSize reports an operation whose sample size is too small for the
// requested statistic (e.g. a variance interval needs n ≥ 2).
var ErrSampleSize = errors.New("accuracy: sample size too small")

// Interval is a confidence interval [Lo, Hi] holding an estimated parameter
// with probability at least Level (the confidence coefficient, §II-A).
type Interval struct {
	Lo, Hi float64
	Level  float64
}

// Length returns Hi − Lo, the figure of merit throughout the paper's
// experiments ("the smaller an interval is, the more accurate the query
// result is").
func (iv Interval) Length() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside the interval; a false result is a
// "miss" in the paper's Fig 4(c)/(d) metric.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Mid returns the interval midpoint.
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

func (iv Interval) String() string {
	return fmt.Sprintf("[%.6g, %.6g]@%g%%", iv.Lo, iv.Hi, iv.Level*100)
}

// Clamp returns the interval intersected with [lo, hi]; bin-height and
// tuple-probability intervals are clamped to [0, 1].
func (iv Interval) Clamp(lo, hi float64) Interval {
	out := iv
	if out.Lo < lo {
		out.Lo = lo
	}
	if out.Hi > hi {
		out.Hi = hi
	}
	if out.Lo > out.Hi { // disjoint: collapse to the nearer bound
		if iv.Hi < lo {
			out.Lo, out.Hi = lo, lo
		} else {
			out.Lo, out.Hi = hi, hi
		}
	}
	return out
}

// BinHeightInterval implements Lemma 1 for a single histogram bucket: a
// level-c confidence interval for the true bucket probability, given the
// observed bucket probability p learned from a sample of size n.
//
// When n·p ≥ 4 and n·(1−p) ≥ 4 the binomial is well approximated by a
// normal and the Wald interval (paper eq. 1) applies; otherwise the Wilson
// score interval (paper eq. 2) is used.
func BinHeightInterval(p float64, n int, c float64) (Interval, error) {
	if n < 1 {
		return Interval{}, fmt.Errorf("%w: bin-height interval needs n ≥ 1, have %d", ErrSampleSize, n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Interval{}, fmt.Errorf("accuracy: bucket probability %v outside [0,1]", p)
	}
	if err := stat.CheckLevel(c); err != nil {
		return Interval{}, fmt.Errorf("accuracy: confidence level %v: %w", c, err)
	}
	// The threshold comparison tolerates float rounding: n·(1−p) for, say,
	// p = 0.9, n = 40 evaluates to 3.9999999999999996, and without the
	// slack the two boundaries of the switch rule would behave
	// asymmetrically (n·p = 4 → Wald, n·(1−p) = 4 → Wilson).
	const boundaryTol = 1e-9
	fn := float64(n)
	if fn*p >= 4-boundaryTol && fn*(1-p) >= 4-boundaryTol {
		return WaldInterval(p, n, c)
	}
	return WilsonInterval(p, n, c)
}

// WaldInterval is the normal-approximation proportion interval of the
// paper's eq. (1): p ± z·sqrt(p(1−p)/n). Valid when n·p and n·(1−p) are
// both ≥ 4; exported separately for the switch-rule ablation (FigX3).
func WaldInterval(p float64, n int, c float64) (Interval, error) {
	if err := checkProportionArgs(p, n, c); err != nil {
		return Interval{}, err
	}
	z := stat.ZUpper((1 - c) / 2)
	half := z * math.Sqrt(p*(1-p)/float64(n))
	return clampProportion(p-half, p+half, p, c), nil
}

// WilsonInterval is the Wilson score interval of the paper's eq. (2),
// robust at extreme proportions and tiny counts.
func WilsonInterval(p float64, n int, c float64) (Interval, error) {
	if err := checkProportionArgs(p, n, c); err != nil {
		return Interval{}, err
	}
	z := stat.ZUpper((1 - c) / 2)
	fn := float64(n)
	z2 := z * z
	denom := 1 + z2/fn
	center := p + z2/(2*fn)
	half := z * math.Sqrt(p*(1-p)/fn+z2/(4*fn*fn))
	return clampProportion((center-half)/denom, (center+half)/denom, p, c), nil
}

func checkProportionArgs(p float64, n int, c float64) error {
	if n < 1 {
		return fmt.Errorf("%w: proportion interval needs n ≥ 1, have %d", ErrSampleSize, n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("accuracy: proportion %v outside [0,1]", p)
	}
	if err := stat.CheckLevel(c); err != nil {
		return fmt.Errorf("accuracy: confidence level %v: %w", c, err)
	}
	return nil
}

// clampProportion keeps the interval inside [0,1] and, against
// floating-point rounding at the extremes, containing its estimate.
func clampProportion(lo, hi, p, c float64) Interval {
	if lo > p {
		lo = p
	}
	if hi < p {
		hi = p
	}
	return Interval{Lo: lo, Hi: hi, Level: c}.Clamp(0, 1)
}

// BinInterval pairs a histogram bucket with the confidence interval of its
// height — one entry of the generalized representation
// {(bᵢ, pᵢ₁, pᵢ₂, cᵢ)} of §II-B.
type BinInterval struct {
	Bucket   int     // bucket index
	Lo, Hi   float64 // bucket value range [Lo, Hi)
	Estimate float64 // observed bin height pᵢ
	Interval Interval
}

// HistogramAccuracy applies Lemma 1 to every bucket of h, learned from a
// sample of size n, at confidence level c. When n is 0 the histogram's own
// retained sample size is used.
func HistogramAccuracy(h *dist.Histogram, n int, c float64) ([]BinInterval, error) {
	if h == nil {
		return nil, errors.New("accuracy: nil histogram")
	}
	if n == 0 {
		n = h.SampleSize()
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: histogram has no sample size; pass n explicitly", ErrSampleSize)
	}
	out := make([]BinInterval, h.NumBuckets())
	for i := range out {
		p := h.BucketProb(i)
		iv, err := BinHeightInterval(p, n, c)
		if err != nil {
			return nil, err
		}
		lo, hi := h.Bucket(i)
		out[i] = BinInterval{Bucket: i, Lo: lo, Hi: hi, Estimate: p, Interval: iv}
	}
	return out, nil
}

// MeanInterval implements Lemma 2 equations (3) and (4): a level-c
// confidence interval for the population mean, from sample mean ybar,
// sample standard deviation s, and sample size n. Student's t with n−1
// degrees of freedom is used when n < 30, the normal approximation when
// n ≥ 30.
func MeanInterval(ybar, s float64, n int, c float64) (Interval, error) {
	if n < 2 {
		return Interval{}, fmt.Errorf("%w: mean interval needs n ≥ 2, have %d", ErrSampleSize, n)
	}
	if s < 0 || math.IsNaN(s) || math.IsNaN(ybar) {
		return Interval{}, fmt.Errorf("accuracy: invalid sample statistics ȳ=%v s=%v", ybar, s)
	}
	if err := stat.CheckLevel(c); err != nil {
		return Interval{}, fmt.Errorf("accuracy: confidence level %v: %w", c, err)
	}
	mult, err := stat.MeanCritical((1-c)/2, n)
	if err != nil {
		return Interval{}, err
	}
	half := mult * s / math.Sqrt(float64(n))
	return Interval{Lo: ybar - half, Hi: ybar + half, Level: c}, nil
}

// VarianceInterval implements Lemma 2 equation (5): a level-c confidence
// interval for the population variance from sample variance s2 and sample
// size n, based on the chi-square distribution with n−1 degrees of freedom.
func VarianceInterval(s2 float64, n int, c float64) (Interval, error) {
	if n < 2 {
		return Interval{}, fmt.Errorf("%w: variance interval needs n ≥ 2, have %d", ErrSampleSize, n)
	}
	if s2 < 0 || math.IsNaN(s2) {
		return Interval{}, fmt.Errorf("accuracy: invalid sample variance %v", s2)
	}
	if err := stat.CheckLevel(c); err != nil {
		return Interval{}, fmt.Errorf("accuracy: confidence level %v: %w", c, err)
	}
	// χ² that locates (1−c)/2 to the right (upper) and to the left (lower).
	upper, lower, err := stat.VarianceCritical(c, n)
	if err != nil {
		return Interval{}, err
	}
	df := float64(n - 1)
	return Interval{
		Lo:    df * s2 / upper,
		Hi:    df * s2 / lower,
		Level: c,
	}, nil
}

// TupleProbInterval implements the tuple-probability case of §II-B and
// Theorem 1: the membership probability p of a result tuple is treated as a
// one-bin histogram whose bin probability is p, with n the d.f. sample size
// of the boolean existence variable.
func TupleProbInterval(p float64, n int, c float64) (Interval, error) {
	return BinHeightInterval(p, n, c)
}

// DFSampleSize implements Lemma 3: the de facto sample size of an output
// random variable Y = f(X₁, …, X_d) is the minimum of the input sample
// sizes. It returns an error when no inputs are given or any size is < 1.
func DFSampleSize(sizes ...int) (int, error) {
	if len(sizes) == 0 {
		return 0, errors.New("accuracy: d.f. sample size of zero inputs")
	}
	minSize := sizes[0]
	for _, n := range sizes {
		if n < 1 {
			return 0, fmt.Errorf("%w: input sample size %d", ErrSampleSize, n)
		}
		if n < minSize {
			minSize = n
		}
	}
	return minSize, nil
}

// LogDFSampleCount implements Lemma 4's counting argument: the natural log
// of the number c = Π_{i≥2} nᵢ!/(nᵢ−n)! of distinct d.f. samples of
// Y = f(X₁, …, X_d), where sizes are the input sample sizes (in any order)
// and n = min is the d.f. sample size. The count itself overflows quickly,
// so the log is returned.
func LogDFSampleCount(sizes ...int) (float64, error) {
	n, err := DFSampleSize(sizes...)
	if err != nil {
		return 0, err
	}
	// Identify one input attaining the minimum to play the role of X₁.
	skipped := false
	logC := 0.0
	for _, ni := range sizes {
		if ni == n && !skipped {
			skipped = true
			continue
		}
		// log(nᵢ!/(nᵢ−n)!) = lgamma(nᵢ+1) − lgamma(nᵢ−n+1).
		a, _ := math.Lgamma(float64(ni) + 1)
		b, _ := math.Lgamma(float64(ni-n) + 1)
		logC += a - b
	}
	return logC, nil
}

// Info is the accuracy information attached to a probabilistic field of a
// query result (Fig. 2): intervals for the distribution's mean and
// variance, plus per-bucket bin-height intervals when the distribution is a
// histogram.
type Info struct {
	// N is the (d.f.) sample size the intervals were computed from.
	N int
	// Level is the confidence level of every interval.
	Level float64
	// Mean and Variance are the Lemma 2 intervals.
	Mean, Variance Interval
	// Bins holds the Lemma 1 intervals when the distribution is a
	// histogram; nil otherwise.
	Bins []BinInterval
	// WindowMedian is a distribution-free interval for the median of the
	// window's per-tuple means, populated only by backends that track order
	// statistics (the sketch backend); nil otherwise.
	WindowMedian *Interval
	// Method records how the info was obtained ("analytical", "bootstrap",
	// or "sketch").
	Method string
}

// ForDistribution implements Theorem 1's analytical path: given a result
// field's distribution d and its d.f. sample size n, it computes the
// accuracy information using d's mean and standard deviation as ȳ and s.
// Histograms additionally get per-bucket intervals.
func ForDistribution(d dist.Distribution, n int, c float64) (*Info, error) {
	if d == nil {
		return nil, errors.New("accuracy: nil distribution")
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: accuracy info needs n ≥ 2, have %d", ErrSampleSize, n)
	}
	sd := math.Sqrt(d.Variance())
	mean, err := MeanInterval(d.Mean(), sd, n, c)
	if err != nil {
		return nil, err
	}
	variance, err := VarianceInterval(d.Variance(), n, c)
	if err != nil {
		return nil, err
	}
	info := &Info{N: n, Level: c, Mean: mean, Variance: variance, Method: "analytical"}
	if h, ok := d.(*dist.Histogram); ok {
		bins, err := HistogramAccuracy(h, n, c)
		if err != nil {
			return nil, err
		}
		info.Bins = bins
	}
	return info, nil
}

// ForSample computes accuracy information directly from a raw sample's
// statistics (the Lemma 2 path for source data), with ybar and s the sample
// mean and standard deviation.
func ForSample(ybar, s float64, n int, c float64) (*Info, error) {
	mean, err := MeanInterval(ybar, s, n, c)
	if err != nil {
		return nil, err
	}
	variance, err := VarianceInterval(s*s, n, c)
	if err != nil {
		return nil, err
	}
	return &Info{N: n, Level: c, Mean: mean, Variance: variance, Method: "analytical"}, nil
}

// ProbGreaterInterval estimates an interval for P(X > v) from a histogram
// with bin-height intervals — the §I use case "the user can estimate the
// probability interval that the temperature is greater than 80 degrees".
// Buckets straddling v contribute a prorated share of both bounds.
func ProbGreaterInterval(h *dist.Histogram, bins []BinInterval, v float64) (Interval, error) {
	if h == nil {
		return Interval{}, errors.New("accuracy: nil histogram")
	}
	if len(bins) != h.NumBuckets() {
		return Interval{}, fmt.Errorf("accuracy: %d bin intervals for %d buckets", len(bins), h.NumBuckets())
	}
	lo, hi := 0.0, 0.0
	level := 1.0
	for i := range bins {
		blo, bhi := h.Bucket(i)
		if bhi <= v {
			continue
		}
		frac := 1.0
		if blo < v { // straddling bucket: mass above v under uniform fill
			frac = (bhi - v) / (bhi - blo)
		}
		lo += frac * bins[i].Interval.Lo
		hi += frac * bins[i].Interval.Hi
		if bins[i].Interval.Level < level {
			level = bins[i].Interval.Level
		}
	}
	return Interval{Lo: lo, Hi: hi, Level: level}.Clamp(0, 1), nil
}
