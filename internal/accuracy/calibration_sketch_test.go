// Sketch-backend calibration: the same empirical-coverage discipline as
// calibration_test.go, applied to intervals derived from the bounded-memory
// summaries in internal/sketch rather than from raw windows. Lives in the
// external test package because sketch imports accuracy.
//
// Targets follow the construction: the Lemma 2 t/χ² intervals built from a
// moment sketch's Mean and M2/(N−1) (Welford/Chan track the exact sample
// moments, merged or not) must cover at the nominal rate
// within the binomial 3σ tolerance. The quantile-sketch interval widens exact
// order-statistic ranks by the sketch's deterministic rank-error bound, so it
// is conservative: coverage must be at least nominal (minus 3σ sampling
// noise), and is additionally checked not to degrade when sketches are merged
// from shards. The predictive interval for a probabilistic sum is a CLT
// construction over the probabilistic moments, nominal up to the normal
// approximation error.
package accuracy_test

import (
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dist"
	"repro/internal/sketch"
	"repro/internal/stat"
)

const sketchCalibTrials = 4000

var sketchCalibLevels = []float64{0.90, 0.95, 0.99}

func sketchTol3Sigma(cov float64, trials int) float64 {
	return 3 * math.Sqrt(cov*(1-cov)/float64(trials))
}

// momentsOf builds a moment sketch over n Gaussian draws, optionally split
// into shards whose sketches are merged (shards = 1 is the plain single-pass
// path). Merging is algebraically exact, so both shapes must calibrate
// identically.
func momentsOf(rng *dist.Rand, mu, sigma float64, n, shards int) sketch.Moments {
	var parts []sketch.Moments
	per := n / shards
	for s := 0; s < shards; s++ {
		var m sketch.Moments
		for i := 0; i < per; i++ {
			m.Add(mu + sigma*rng.NormFloat64())
		}
		parts = append(parts, m)
	}
	whole := parts[0]
	for _, p := range parts[1:] {
		whole.Merge(p)
	}
	return whole
}

// momentsVar is a moment summary's unbiased sample variance, M2/(N−1): with
// its Mean and N, the statistics the Lemma 2 intervals take.
func momentsVar(m sketch.Moments) float64 { return m.M2 / float64(m.N-1) }

func TestSketchMeanIntervalCalibration(t *testing.T) {
	const mu, sigma = 5.0, 2.0
	for _, shards := range []int{1, 4} {
		rng := dist.NewRand(uint64(601 + shards))
		for _, level := range sketchCalibLevels {
			hits := 0
			for trial := 0; trial < sketchCalibTrials; trial++ {
				m := momentsOf(rng, mu, sigma, 100, shards)
				iv, err := accuracy.MeanInterval(m.Mean, math.Sqrt(momentsVar(m)), int(m.N), level)
				if err != nil {
					t.Fatalf("shards=%d trial %d: %v", shards, trial, err)
				}
				if iv.Contains(mu) {
					hits++
				}
			}
			emp := float64(hits) / sketchCalibTrials
			if d := math.Abs(emp - level); d > sketchTol3Sigma(level, sketchCalibTrials) {
				t.Errorf("sketch mean CI shards=%d level %g: coverage %.4f (Δ=%.4f > 3σ=%.4f)",
					shards, level, emp, d, sketchTol3Sigma(level, sketchCalibTrials))
			}
		}
	}
}

func TestSketchVarianceIntervalCalibration(t *testing.T) {
	const mu, sigma = -1.0, 3.0
	for _, shards := range []int{1, 4} {
		rng := dist.NewRand(uint64(611 + shards))
		for _, level := range sketchCalibLevels {
			hits := 0
			for trial := 0; trial < sketchCalibTrials; trial++ {
				m := momentsOf(rng, mu, sigma, 24, shards)
				iv, err := accuracy.VarianceInterval(momentsVar(m), int(m.N), level)
				if err != nil {
					t.Fatalf("shards=%d trial %d: %v", shards, trial, err)
				}
				if iv.Contains(sigma * sigma) {
					hits++
				}
			}
			emp := float64(hits) / sketchCalibTrials
			if d := math.Abs(emp - level); d > sketchTol3Sigma(level, sketchCalibTrials) {
				t.Errorf("sketch variance CI shards=%d level %g: coverage %.4f (Δ=%.4f > 3σ=%.4f)",
					shards, level, emp, d, sketchTol3Sigma(level, sketchCalibTrials))
			}
		}
	}
}

// TestSketchQuantileIntervalCalibration: the sketch median interval is
// conservative by construction (exact ranks widened by the tracked rank-error
// bound), so its empirical coverage must be ≥ nominal within 3σ sampling
// noise — at every level, both single-pass and merged across shards.
func TestSketchQuantileIntervalCalibration(t *testing.T) {
	exp, _ := dist.NewExponential(1)
	trueMedian := exp.Quantile(0.5)
	const n = 200
	for _, shards := range []int{1, 4} {
		rng := dist.NewRand(uint64(621 + shards))
		for _, level := range sketchCalibLevels {
			hits := 0
			for trial := 0; trial < sketchCalibTrials; trial++ {
				var parts []*sketch.Quantile
				for s := 0; s < shards; s++ {
					q := sketch.NewQuantile(32)
					for i := 0; i < n/shards; i++ {
						if err := q.Add(exp.Sample(rng)); err != nil {
							t.Fatal(err)
						}
					}
					parts = append(parts, q)
				}
				q := parts[0]
				for _, p := range parts[1:] {
					q.Merge(p)
				}
				iv, err := q.Interval(0.5, level)
				if err != nil {
					t.Fatalf("shards=%d trial %d: %v", shards, trial, err)
				}
				if iv.Level < level {
					t.Fatalf("achieved level %g below requested %g", iv.Level, level)
				}
				if iv.Contains(trueMedian) {
					hits++
				}
			}
			emp := float64(hits) / sketchCalibTrials
			if emp < level-sketchTol3Sigma(level, sketchCalibTrials) {
				t.Errorf("sketch median CI shards=%d level %g: coverage %.4f below nominal (tol %.4f)",
					shards, level, emp, sketchTol3Sigma(level, sketchCalibTrials))
			}
		}
	}
}

// TestSketchProbSumIntervalCalibration: the sketch's membership moment
// Σp(1−p)·x̄² is the membership term of the possible-world sum's variance —
// with Σp·x̄ and Σp·v summed here, the predictive interval
// Σp·x̄ ± z·√(Σp·v + Σp(1−p)·x̄²) must cover the realized sum at its
// nominal rate (CLT over ~150 heterogeneous Bernoulli–Gaussian tuples; the
// approximation error at that width is well inside 3σ).
func TestSketchProbSumIntervalCalibration(t *testing.T) {
	rng := dist.NewRand(631)
	const n = 150
	for _, level := range sketchCalibLevels {
		hits := 0
		for trial := 0; trial < sketchCalibTrials; trial++ {
			var pm sketch.ProbMoments
			var sumPX, sumPV float64
			type tup struct{ x, sd, p float64 }
			tuples := make([]tup, n)
			for i := range tuples {
				tp := tup{
					x:  rng.Float64()*20 - 10,
					sd: rng.Float64() * 2,
					p:  0.1 + 0.8*rng.Float64(),
				}
				tuples[i] = tp
				pm.Add(tp.x, tp.p)
				sumPX += tp.p * tp.x
				sumPV += tp.p * tp.sd * tp.sd
			}
			half := stat.ZUpper((1-level)/2) * math.Sqrt(sumPV+pm.SumP1PX2)
			iv := accuracy.Interval{Lo: sumPX - half, Hi: sumPX + half}
			realized := 0.0
			for _, tp := range tuples {
				if rng.Float64() < tp.p {
					realized += tp.x + tp.sd*rng.NormFloat64()
				}
			}
			if iv.Contains(realized) {
				hits++
			}
		}
		emp := float64(hits) / sketchCalibTrials
		if d := math.Abs(emp - level); d > sketchTol3Sigma(level, sketchCalibTrials)+0.005 {
			t.Errorf("prob sum CI level %g: coverage %.4f (Δ=%.4f beyond 3σ+CLT slack)", level, emp, d)
		}
	}
}

// TestSketchIntervalsMatchExactOnCertainData: cross-backend fidelity at the
// accuracy layer — on a stream of certain tuples the mean interval built from
// the moment sketch equals accuracy.MeanInterval over the two-pass moments
// (same statistics in, same construction), and the sketch median interval
// contains the exact order-statistic interval computed from the raw sample.
func TestSketchIntervalsMatchExactOnCertainData(t *testing.T) {
	rng := dist.NewRand(641)
	const n = 500
	xs := make([]float64, n)
	var m sketch.Moments
	q := sketch.NewQuantile(sketch.DefaultQuantileK)
	for i := range xs {
		xs[i] = rng.NormFloat64()*4 + 20
		m.Add(xs[i])
		if err := q.Add(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	mean, m2 := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(m2 / (n - 1))
	for _, level := range sketchCalibLevels {
		exactMean, err := accuracy.MeanInterval(mean, sd, n, level)
		if err != nil {
			t.Fatal(err)
		}
		gotMean, err := accuracy.MeanInterval(m.Mean, math.Sqrt(momentsVar(m)), int(m.N), level)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotMean.Lo-exactMean.Lo) > 1e-9 || math.Abs(gotMean.Hi-exactMean.Hi) > 1e-9 {
			t.Errorf("level %g: sketch mean interval %v vs exact %v", level, gotMean, exactMean)
		}
		exactMed, err := accuracy.MedianInterval(xs, level)
		if err != nil {
			t.Fatal(err)
		}
		gotMed, err := q.Interval(0.5, level)
		if err != nil {
			t.Fatal(err)
		}
		if gotMed.Lo > exactMed.Lo || gotMed.Hi < exactMed.Hi {
			t.Errorf("level %g: sketch median interval %v narrower than exact %v", level, gotMed, exactMed)
		}
	}
}
