// Package bootstrap implements the paper's §III: obtaining accuracy
// information via bootstraps instead of the analytical formulas.
//
// The central algorithm is BOOTSTRAP-ACCURACY-INFO: given a sequence of m
// values of an output random variable Y (produced either by a Monte Carlo
// query path or by sampling the result distribution directly), and Y's de
// facto sample size n, it groups the values into r = ⌊m/n⌋ d.f. resamples,
// computes the statistics of interest (bin heights, sample mean, sample
// variance) within each resample, and reports percentile intervals of each
// statistic over the r resamples (Theorem 2 establishes correctness via
// Lemma 4's concurrent-bootstrap argument).
//
// The package also provides the classic single-sample bootstrap
// (resampling with replacement, §III-A) used to cross-check the d.f.
// variant and to bootstrap source-data samples directly.
//
// # Accuracy kernel
//
// Every loop here runs serially on the caller's goroutine. Lemma 4's
// resamples are independent by construction, and each one that draws —
// classic bootstrap resamples, Monte Carlo draws in FromDistribution — draws
// from its own RNG substream of one root value (dist.DeriveSeed), so a
// resample's values depend on its index alone. Per-resample statistics use
// single-pass Welford accumulation and pooled flat scratch buffers, so the
// steady-state hot path allocates only the returned accuracy.Info.
package bootstrap

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/accuracy"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/metrics"
	"repro/internal/stat"
)

// Kernel observability: resample/draw volume and kernel wall time. One
// timer pair and a few atomic adds per kernel invocation — observation
// only, far below the per-call work the counters measure.
var (
	mResamples = metrics.Default.Counter("asdb_bootstrap_resamples_total",
		"d.f. resamples processed by BOOTSTRAP-ACCURACY-INFO")
	mValues = metrics.Default.Counter("asdb_bootstrap_values_total",
		"output-variable values scanned by BOOTSTRAP-ACCURACY-INFO")
	mDraws = metrics.Default.Counter("asdb_bootstrap_mc_draws_total",
		"Monte Carlo variates drawn by FromDistribution")
	hKernel = metrics.Default.Histogram("asdb_bootstrap_kernel_seconds",
		"wall time of one BOOTSTRAP-ACCURACY-INFO invocation", metrics.DefBuckets)
	hSample = metrics.Default.Histogram("asdb_bootstrap_sample_seconds",
		"wall time of FromDistribution's Monte Carlo sampling phase", metrics.DefBuckets)
)

// ErrTooFewValues reports that the value sequence cannot form enough d.f.
// resamples for percentile intervals to be meaningful.
var ErrTooFewValues = errors.New("bootstrap: too few values for requested resamples")

// scratchPool recycles the flat float64 scratch buffers of the hot paths
// (resample statistics, sampled value sequences) across calls.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]float64, 0, 1024)
		return &b
	},
}

// getScratch returns a pooled buffer resized to n (contents undefined).
func getScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putScratch(p *[]float64) { scratchPool.Put(p) }

// percentileIntervalInPlace returns the level-α percentile interval of
// values: the span between the 100·(1−α)/2-th and 100·(1+α)/2-th
// percentiles (lines 12–15 of BOOTSTRAP-ACCURACY-INFO). It sorts values in
// place and assumes the caller has validated alpha and owns the buffer.
func percentileIntervalInPlace(values []float64, alpha float64) accuracy.Interval {
	slices.Sort(values)
	lo := percentile(values, (1-alpha)/2)
	hi := percentile(values, (1+alpha)/2)
	return accuracy.Interval{Lo: lo, Hi: hi, Level: alpha}
}

// percentile returns the p-th quantile of sorted values with linear
// interpolation (type-7). An empty input yields NaN rather than a panic.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// AccuracyInfo is algorithm BOOTSTRAP-ACCURACY-INFO.
//
// v is the sequence of output-variable values from query processing, n the
// d.f. sample size of the output variable (Lemma 3), and alpha the
// confidence level of the intervals. hist optionally supplies histogram
// bucket edges: when non-nil, per-bucket bin-height intervals are computed
// over the resamples exactly as lines 6–8 and 12–14 of the algorithm; when
// nil only mean and variance intervals are produced.
//
// It returns an error when fewer than 2 complete resamples fit in v
// (r = ⌊m/n⌋ < 2); the paper assumes "m is sufficiently large so that the
// confidence intervals ... converge".
func AccuracyInfo(v []float64, n int, alpha float64, hist *dist.Histogram) (*accuracy.Info, error) {
	return accuracyInfo(v, n, alpha, hist, false)
}

// AccuracyInfoShed is AccuracyInfo for a load-shed (reduced) resample
// budget. Percentile intervals over a handful of resamples undercover — the
// empirical 5th/95th percentiles of r points collapse toward the min/max, so
// trimming resamples would silently report narrower intervals. The shed
// variant instead reports t-based prediction intervals over the resample
// statistics, mean ± t((1+α)/2, r−1)·s·√(1+1/r): asymptotically the same
// interval under normality, and honestly wider as r shrinks — degraded
// accuracy shows up in the output instead of hiding in lost coverage.
func AccuracyInfoShed(v []float64, n int, alpha float64, hist *dist.Histogram) (*accuracy.Info, error) {
	return accuracyInfo(v, n, alpha, hist, true)
}

func accuracyInfo(v []float64, n int, alpha float64, hist *dist.Histogram, shed bool) (*accuracy.Info, error) {
	if n < 2 {
		return nil, fmt.Errorf("bootstrap: d.f. sample size %d, need ≥ 2", n)
	}
	r := len(v) / n // line 1: number of d.f. resamples
	if r < 2 {
		return nil, fmt.Errorf("%w: m=%d values, n=%d gives r=%d resamples",
			ErrTooFewValues, len(v), n, r)
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("bootstrap: confidence level %v outside (0,1)", alpha)
	}
	mResamples.Add(uint64(r))
	mValues.Add(uint64(r * n))
	defer hKernel.ObserveSince(time.Now())
	buckets := 0
	if hist != nil {
		buckets = hist.NumBuckets()
	}
	// One flat scratch buffer backs every per-resample statistic:
	// [0,n) Welford reciprocals, then [_,r) resample means, [_,r)
	// resample variances, then `buckets` rows of r bin heights each
	// (row k holds bucket k across resamples, contiguous so its
	// percentile interval sorts in place without a gather).
	scratch := getScratch(n + r*(2+buckets))
	defer putScratch(scratch)
	buf := *scratch
	inv := buf[:n]
	for j := range inv {
		// Welford's update divides by the running count; precomputing
		// the reciprocals turns a loop-carried division into a multiply.
		inv[j] = 1 / float64(j+1)
	}
	means := buf[n : n+r]
	variances := buf[n+r : n+2*r]
	bins := buf[n+2*r:]
	for i := range bins {
		bins[i] = 0
	}
	resampleStats(v, n, r, means, variances, bins, inv, hist)
	interval := percentileIntervalInPlace
	method := "bootstrap"
	if shed {
		interval = tPredictionInterval
		method = "bootstrap-shed"
	}
	info := &accuracy.Info{
		N:        n,
		Level:    alpha,
		Mean:     interval(means, alpha),
		Variance: interval(variances, alpha),
		Method:   method,
	}
	if hist != nil {
		info.Bins = make([]accuracy.BinInterval, buckets)
		for k := range info.Bins {
			iv := interval(bins[k*r:(k+1)*r], alpha)
			lo, hi := hist.Bucket(k)
			est := hist.BucketProb(k)
			info.Bins[k] = accuracy.BinInterval{
				Bucket:   k,
				Lo:       lo,
				Hi:       hi,
				Estimate: est,
				Interval: iv.Clamp(0, 1),
			}
		}
	}
	return info, nil
}

// tPredictionInterval is the shed-path interval: a level-α prediction
// interval for a fresh draw of the statistic, centered on the resample mean
// with half-width t((1+α)/2, r−1)·s·√(1+1/r). It needs only the first two
// moments of the resample statistics, so it stays meaningful at resample
// counts far too small for empirical percentiles.
func tPredictionInterval(stats []float64, alpha float64) accuracy.Interval {
	r := len(stats)
	if r < 2 {
		v := 0.0
		if r == 1 {
			v = stats[0]
		}
		return accuracy.Interval{Lo: v, Hi: v, Level: alpha}
	}
	mean := 0.0
	for _, x := range stats {
		mean += x
	}
	mean /= float64(r)
	ss := 0.0
	for _, x := range stats {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(r-1))
	t, err := stat.PredictionCritical(alpha, r)
	if err != nil {
		// Unreachable for r ≥ 2 and α ∈ (0,1); degrade to the percentile
		// interval rather than fail the query.
		return percentileIntervalInPlace(stats, alpha)
	}
	hw := t * sd * math.Sqrt(1+1/float64(r))
	return accuracy.Interval{Lo: mean - hw, Hi: mean + hw, Level: alpha}
}

// resampleStats computes the statistics of the r resamples — lines 2–11 of
// BOOTSTRAP-ACCURACY-INFO. Resample i reads v[i*n:(i+1)*n] and writes
// means[i], variances[i], and column i of each bucket row in bins.
//
// Moments use single-pass Welford accumulation in two interleaved blocks
// merged with Chan et al.'s pairwise formula: one sweep over the data (the
// textbook two-pass form reads it twice), the numerical robustness of
// Welford's update, and half the loop-carried latency of a single
// accumulator. inv holds precomputed reciprocals 1/(j+1) so the update
// multiplies instead of divides.
func resampleStats(v []float64, n, r int, means, variances, bins, inv []float64, hist *dist.Histogram) {
	buckets := 0
	if hist != nil {
		buckets = hist.NumBuckets()
	}
	invN := 1 / float64(n)
	for i := 0; i < r; i++ {
		o := v[i*n : (i+1)*n]
		h := n / 2
		a, b := o[:h], o[h:]
		mA, sA := 0.0, 0.0
		mB, sB := 0.0, 0.0
		for j := range a {
			dA := a[j] - mA
			mA += dA * inv[j]
			sA += dA * (a[j] - mA)
			dB := b[j] - mB
			mB += dB * inv[j]
			sB += dB * (b[j] - mB)
		}
		if len(b) > h { // odd n: fold the leftover element into block B
			x := b[h]
			dB := x - mB
			mB += dB * inv[h]
			sB += dB * (x - mB)
		}
		nA, nB := float64(h), float64(n-h)
		d := mB - mA
		means[i] = mA + d*nB*invN
		variances[i] = (sA + sB + d*d*nA*nB*invN) / float64(n-1)
		if hist != nil {
			for _, x := range o {
				if k := hist.BucketIndex(x); k >= 0 {
					bins[k*r+i]++
				}
			}
			for k := 0; k < buckets; k++ {
				bins[k*r+i] *= invN
			}
		}
	}
}

// FromDistribution covers the paper's second query-processing category
// (§III-B): the query produced a result distribution directly (no Monte
// Carlo value sequence), so we "sample from this distribution and also get
// a sequence of values", then run BOOTSTRAP-ACCURACY-INFO on it. r controls
// the number of d.f. resamples drawn (m = r·n values are sampled).
//
// Each of the r resamples draws its n variates from its own RNG substream
// derived from one value consumed off rng (dist.DeriveSeed), so rng advances
// by exactly one step per call whatever n, r and d are.
func FromDistribution(d dist.Distribution, n, r int, alpha float64, rng *dist.Rand) (*accuracy.Info, error) {
	return fromDistribution(d, n, r, alpha, rng, false)
}

// FromDistributionShed is FromDistribution for a load-shed resample
// budget: the reduced r draws proportionally fewer variates, and intervals
// come from the t-based shed path (see AccuracyInfoShed) so they widen
// honestly instead of undercovering.
func FromDistributionShed(d dist.Distribution, n, r int, alpha float64, rng *dist.Rand) (*accuracy.Info, error) {
	return fromDistribution(d, n, r, alpha, rng, true)
}

func fromDistribution(d dist.Distribution, n, r int, alpha float64, rng *dist.Rand, shed bool) (*accuracy.Info, error) {
	if d == nil {
		return nil, errors.New("bootstrap: nil distribution")
	}
	if r < 2 {
		return nil, fmt.Errorf("bootstrap: resample count %d, need ≥ 2", r)
	}
	if n < 2 {
		return nil, fmt.Errorf("bootstrap: d.f. sample size %d, need ≥ 2", n)
	}
	root := rng.Uint64()
	scratch := getScratch(n * r)
	defer putScratch(scratch)
	v := *scratch
	mDraws.Add(uint64(n * r))
	t0 := time.Now()
	sampleResamples(d, v, n, root)
	hSample.ObserveSince(t0)
	hist, _ := d.(*dist.Histogram)
	return accuracyInfo(v, n, alpha, hist, shed)
}

// sampleResamples draws the FromDistribution value sequence v, len(v)/n
// resamples of n. Resample i fills v[i*n:(i+1)*n] from RNG substream i of
// root, reusing one generator struct, so the values depend only on
// (d, root, n).
func sampleResamples(d dist.Distribution, v []float64, n int, root uint64) {
	r := len(v) / n
	var sub dist.Rand
	// Devirtualized fast paths for the two distributions the aggregate hot
	// path emits. Bit-identical to the generic loop: Normal.Sample computes
	// Mu + Sqrt(Sigma2)*NormFloat64 (hoisting the sqrt changes no bits),
	// and Point.Sample returns V without consuming the substream.
	switch dd := d.(type) {
	case dist.Normal:
		mu, sd := dd.Mu, math.Sqrt(dd.Sigma2)
		for i := 0; i < r; i++ {
			sub.Reseed(dist.DeriveSeed(root, uint64(i)))
			o := v[i*n : (i+1)*n]
			for j := range o {
				o[j] = mu + sd*sub.NormFloat64()
			}
		}
		return
	case dist.Point:
		for j := range v {
			v[j] = dd.V
		}
		return
	}
	for i := 0; i < r; i++ {
		sub.Reseed(dist.DeriveSeed(root, uint64(i)))
		o := v[i*n : (i+1)*n]
		for j := range o {
			o[j] = d.Sample(&sub)
		}
	}
}

// Statistic is a function of a sample, e.g. the sample mean (Definition 1:
// "any function T of the sample is called a statistic").
type Statistic func(*learn.Sample) (float64, error)
