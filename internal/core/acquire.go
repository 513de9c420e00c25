package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/accuracy"
	"repro/internal/hypothesis"
	"repro/internal/learn"
)

// This file implements the paper's online-computation use case (§I): "When
// the intervals are sufficiently narrow to make a decision with enough
// confidence, we can stop acquiring raw data/samples, which is a slow or
// expensive process."
//
// Acquire drives a raw-observation source in batches, recomputing accuracy
// information after each batch, and stops at the earliest of: the mean
// interval reaching a target width, a coupled significance test reaching a
// decision, or the observation budget running out.

// AcquireTest is an optional decision rule: stop as soon as the coupled
// mTest "mean Op C" decides at error rates (Alpha1, Alpha2).
type AcquireTest struct {
	Op     hypothesis.Op
	C      float64
	Alpha1 float64
	Alpha2 float64
}

// AcquireRule configures Acquire's stopping conditions. At least one of
// MaxWidth and Test must be set.
type AcquireRule struct {
	// Level is the confidence level of the tracked mean interval
	// (default 0.9).
	Level float64
	// MaxWidth stops acquisition once the mean interval's length is at
	// most MaxWidth (0 disables the rule).
	MaxWidth float64
	// Test stops acquisition once the coupled test decides (nil disables
	// the rule).
	Test *AcquireTest
	// Batch is the number of observations requested per round
	// (default 5).
	Batch int
	// MinN defers stopping decisions until at least MinN observations
	// have arrived (default 5, minimum 2).
	MinN int
	// MaxN is the observation budget (default 1000).
	MaxN int
}

func (r AcquireRule) normalize() (AcquireRule, error) {
	if r.Level == 0 {
		r.Level = 0.9
	}
	if !(r.Level > 0 && r.Level < 1) { // NaN fails both comparisons
		return r, fmt.Errorf("core: acquire level %v outside (0,1)", r.Level)
	}
	if r.MaxWidth == 0 && r.Test == nil {
		return r, errors.New("core: acquire rule needs MaxWidth or Test")
	}
	if r.MaxWidth < 0 {
		return r, fmt.Errorf("core: MaxWidth %v negative", r.MaxWidth)
	}
	if math.IsNaN(r.MaxWidth) || math.IsInf(r.MaxWidth, 0) {
		return r, fmt.Errorf("core: MaxWidth %v not finite", r.MaxWidth)
	}
	if r.Batch == 0 {
		r.Batch = 5
	}
	if r.Batch < 1 {
		return r, fmt.Errorf("core: Batch %d must be ≥ 1", r.Batch)
	}
	if r.MinN == 0 {
		r.MinN = 5
	}
	if r.MinN < 2 {
		r.MinN = 2
	}
	if r.MaxN == 0 {
		r.MaxN = 1000
	}
	if r.MaxN < r.MinN {
		return r, fmt.Errorf("core: MaxN %d below MinN %d", r.MaxN, r.MinN)
	}
	if r.Test != nil {
		if badAlpha(r.Test.Alpha1) || badAlpha(r.Test.Alpha2) {
			return r, errors.New("core: acquire test significance levels outside (0,1)")
		}
	}
	return r, nil
}

// StopReason reports why acquisition ended.
type StopReason string

// Stop reasons.
const (
	// StopWidth: the mean interval reached the target width.
	StopWidth StopReason = "width"
	// StopDecided: the coupled test reached TRUE or FALSE.
	StopDecided StopReason = "decided"
	// StopBudget: MaxN observations were acquired without another rule
	// firing.
	StopBudget StopReason = "budget"
)

// AcquireResult is the outcome of an Acquire run.
type AcquireResult struct {
	// Sample holds every acquired observation.
	Sample *learn.Sample
	// Mean is the final confidence interval of the mean.
	Mean accuracy.Interval
	// Decision is the final coupled-test answer (Unsure when no Test rule
	// was configured or it never decided).
	Decision hypothesis.Result
	// Reason reports which rule stopped acquisition.
	Reason StopReason
	// Rounds is the number of source calls made.
	Rounds int
}

// Source produces up to n fresh observations of the quantity being
// acquired. Returning fewer than n (or zero) observations is treated as
// exhaustion and stops acquisition with StopBudget.
type Source func(n int) ([]float64, error)

// Acquire runs the online-acquisition loop against source under rule.
func Acquire(source Source, rule AcquireRule) (*AcquireResult, error) {
	if source == nil {
		return nil, errors.New("core: nil acquire source")
	}
	rule, err := rule.normalize()
	if err != nil {
		return nil, err
	}
	res := &AcquireResult{
		Sample:   learn.NewSample(nil),
		Decision: hypothesis.Unsure,
	}
	for {
		want := rule.Batch
		if remaining := rule.MaxN - res.Sample.Size(); remaining < want {
			want = remaining
		}
		if want <= 0 {
			res.Reason = StopBudget
			return res, nil
		}
		obs, err := source(want)
		if err != nil {
			return nil, fmt.Errorf("core: acquire source: %w", err)
		}
		res.Rounds++
		res.Sample.AddAll(obs)
		exhausted := len(obs) < want
		n := res.Sample.Size()
		if n >= rule.MinN && n >= 2 {
			mean, err := res.Sample.Mean()
			if err != nil {
				return nil, err
			}
			sd, err := res.Sample.StdDev()
			if err != nil {
				return nil, err
			}
			iv, err := accuracy.MeanInterval(mean, sd, n, rule.Level)
			if err != nil {
				return nil, err
			}
			res.Mean = iv
			if rule.Test != nil {
				stats := hypothesis.Stats{Mean: mean, SD: sd, N: n}
				decision, err := hypothesis.CoupledMTest(stats, rule.Test.Op, rule.Test.C,
					rule.Test.Alpha1, rule.Test.Alpha2)
				if err != nil {
					return nil, err
				}
				res.Decision = decision
				if decision != hypothesis.Unsure {
					res.Reason = StopDecided
					return res, nil
				}
			}
			if rule.MaxWidth > 0 && iv.Length() <= rule.MaxWidth {
				res.Reason = StopWidth
				return res, nil
			}
		}
		if exhausted {
			res.Reason = StopBudget
			return res, nil
		}
	}
}
