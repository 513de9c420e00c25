// Package randvar implements arithmetic over random variables — the
// machinery behind query expressions such as (A+B)/2 or SQRT(ABS(A−B))
// over distribution-valued fields (paper §II-C, §V-C).
//
// A Field couples a probability distribution with the sample size it was
// learned from; the de facto sample size of any derived variable follows
// Lemma 3 (the minimum of the input sizes, with deterministic inputs not
// constraining the minimum).
//
// Two evaluation paths exist, mirroring §III-B's two query-processing
// categories:
//
//   - Closed form: sums/differences/scalings of independent Gaussians stay
//     Gaussian; point values fold arithmetically. Used when every input is
//     exactly representable.
//   - Monte Carlo: the general path. Inputs are sampled, the expression is
//     applied per draw, and the output is both a value sequence (ready for
//     BOOTSTRAP-ACCURACY-INFO) and a histogram distribution learned from
//     it.
package randvar

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/learn"
)

// Field is a random-variable-valued field: a distribution plus the sample
// size behind it. N = 0 marks an exact (deterministic) value that does not
// constrain the d.f. sample size of derived variables.
type Field struct {
	Dist dist.Distribution
	N    int
}

// Det returns a deterministic field holding v.
func Det(v float64) Field {
	return Field{Dist: dist.Point{V: v}, N: 0}
}

// IsDet reports whether the field is an exact value.
func (f Field) IsDet() bool {
	_, ok := f.Dist.(dist.Point)
	return ok && f.N == 0
}

// Validate reports structural problems with the field.
func (f Field) Validate() error {
	if f.Dist == nil {
		return errors.New("randvar: field with nil distribution")
	}
	if f.N < 0 {
		return fmt.Errorf("randvar: negative sample size %d", f.N)
	}
	return nil
}

// DFSampleSize applies Lemma 3 across the fields: the minimum sample size
// among non-deterministic inputs, or 0 when every input is deterministic.
func DFSampleSize(fields ...Field) int {
	n := 0
	for _, f := range fields {
		if f.N == 0 {
			continue
		}
		if n == 0 || f.N < n {
			n = f.N
		}
	}
	return n
}

// DefaultMonteCarloValues is the value-sequence length m the Monte Carlo
// path generates when the caller does not specify one. With typical d.f.
// sample sizes of 10–100, this yields tens of d.f. resamples for
// BOOTSTRAP-ACCURACY-INFO.
const DefaultMonteCarloValues = 1000

// DefaultHistogramBins is the bucket count for result distributions learned
// from Monte Carlo value sequences.
const DefaultHistogramBins = 20

// Evaluator evaluates expressions over fields. It owns an RNG (Monte Carlo
// path) and configuration for the result representation. Not safe for
// concurrent use; give each stream/worker its own.
type Evaluator struct {
	rng *dist.Rand
	// Values is the Monte Carlo sequence length m.
	Values int
	// Bins is the bucket count of learned result histograms.
	Bins int
	// col is the column Apply compiles its arguments into.
	col Column
}

// NewEvaluator returns an evaluator drawing from rng.
func NewEvaluator(rng *dist.Rand) *Evaluator {
	return &Evaluator{rng: rng, Values: DefaultMonteCarloValues, Bins: DefaultHistogramBins}
}

// RNG exposes the evaluator's generator so its state can be checkpointed
// and restored (the durability layer's determinism guarantee depends on
// resuming Monte Carlo streams mid-sequence).
func (e *Evaluator) RNG() *dist.Rand { return e.rng }

// Result is the outcome of evaluating an expression: the output field
// (distribution + d.f. sample size) and, when the Monte Carlo path ran, the
// raw value sequence for bootstrap accuracy.
type Result struct {
	Field Field
	// Values is the Monte Carlo value sequence (nil on the closed-form
	// path). Its length is the m fed to BOOTSTRAP-ACCURACY-INFO.
	Values []float64
}

// Func is a scalar function applied pointwise to one draw of each input.
type Func func(args []float64) (float64, error)

// Column is a list of fields compiled once for the Monte Carlo path — a
// window column an aggregate folds, or the arguments of an expression — with
// the bookkeeping Draw needs: Lemma 3's d.f. sample size over the fields,
// whether every field is exact, and the first invalid field's error. The
// zero value is an empty column. Draw only reads a column, so one compiled
// column may serve several evaluators.
type Column struct {
	joint  dist.Joint
	n      int   // the least positive sample size (DFSampleSize)
	random bool  // some field is not exact
	err    error // the first invalid field's
}

// Reset empties c, keeping its storage.
func (c *Column) Reset() {
	c.joint.Reset()
	c.n, c.random, c.err = 0, false, nil
}

// Len returns the number of fields compiled into c.
func (c *Column) Len() int { return c.joint.Len() }

// Add appends field f. An invalid field is not compiled; Draw reports the
// first one's error.
func (c *Column) Add(f Field) {
	if err := f.Validate(); err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	c.joint.Add(f.Dist)
	c.note(f.N, f.IsDet())
}

// AddPoint appends the field {Point{V: v}, n}; n must not be negative.
func (c *Column) AddPoint(v float64, n int) {
	c.joint.AddPoint(v)
	c.note(n, n == 0)
}

// AddNormal appends the field {Normal{Mu: mu, Sigma2: sigma2}, n}; n must
// not be negative.
func (c *Column) AddNormal(mu, sigma2 float64, n int) {
	c.joint.AddNormal(mu, sigma2)
	c.note(n, false)
}

func (c *Column) note(n int, det bool) {
	c.random = c.random || !det
	if n > 0 && (c.n == 0 || n < c.n) {
		c.n = n
	}
}

// Column returns the evaluator's own column, emptied, for a caller that
// compiles its inputs and then calls Draw. It stays valid until the next
// Column or Apply call on e. The caller resets it after drawing, so that
// the evaluator keeps no input distribution alive between calls.
func (e *Evaluator) Column() *Column {
	e.col.Reset()
	return &e.col
}

// Apply evaluates y = f(X₁, …, X_d) over the input fields: Draw over the
// fields compiled into one column, folded by f.
func (e *Evaluator) Apply(f Func, fields ...Field) (Result, error) {
	if f == nil {
		return Result{}, errors.New("randvar: nil function")
	}
	if len(fields) == 0 {
		return Result{}, errors.New("randvar: no input fields")
	}
	c := e.Column()
	defer c.Reset()
	for _, fl := range fields {
		c.Add(fl)
	}
	return e.Draw(c, dist.Fold{Op: dist.FoldFunc, F: f})
}

// Draw evaluates the fold of column c's fields.
//
// If every field is exact, the fold is taken once and the result is
// exact. Otherwise the Monte Carlo path takes e.Values joint draws (fields
// are independent, per Definition 2) on e's generator, folds each, skips a
// fold that is NaN or infinite — a domain failure such as a division by a
// draw of 0 — learns a histogram distribution from the rest, and returns
// the value sequence alongside. The output d.f. sample size follows
// Lemma 3.
func (e *Evaluator) Draw(c *Column, f dist.Fold) (Result, error) {
	if c.err != nil {
		return Result{}, c.err
	}
	if c.Len() == 0 {
		return Result{}, errors.New("randvar: no input fields")
	}
	if !c.random {
		v, err := c.joint.Exact(f)
		if err != nil {
			return Result{}, err
		}
		return Result{Field: Det(v)}, nil
	}
	m := e.Values
	if m < 2 {
		m = DefaultMonteCarloValues
	}
	values, err := c.joint.Draw(e.rng, make([]float64, 0, m), m, f)
	if err != nil {
		return Result{}, err
	}
	if len(values) < 2 {
		return Result{}, errors.New("randvar: expression produced fewer than 2 finite values")
	}
	outDist, err := learn.NewHistogramLearner(e.Bins).Learn(learn.NewSample(values))
	if err != nil {
		return Result{}, err
	}
	return Result{
		Field:  Field{Dist: outDist, N: c.n},
		Values: values,
	}, nil
}

// --- Closed-form Gaussian arithmetic ---

// gaussianOf extracts (μ, σ²) when the field is Gaussian or a point.
func gaussianOf(f Field) (mu, sigma2 float64, ok bool) {
	switch d := f.Dist.(type) {
	case dist.Normal:
		return d.Mu, d.Sigma2, true
	case dist.Point:
		return d.V, 0, true
	}
	return 0, 0, false
}

// LinearGaussian computes Σ wᵢ·Xᵢ + c in closed form when every input is
// Gaussian or deterministic (independent inputs): the result is
// N(Σ wᵢμᵢ + c, Σ wᵢ²σᵢ²). ok is false when any input is not Gaussian, in
// which case the caller should fall back to Apply.
//
// This is the fast path of the paper's throughput experiment: "Since the
// inputs are Gaussians, the query processor can compute the AVG result as a
// Gaussian distribution" (§V-C).
func LinearGaussian(weights []float64, c float64, fields ...Field) (Field, bool, error) {
	if len(weights) != len(fields) {
		return Field{}, false, fmt.Errorf("randvar: %d weights for %d fields", len(weights), len(fields))
	}
	mu, sigma2 := c, 0.0
	for i, f := range fields {
		if err := f.Validate(); err != nil {
			return Field{}, false, err
		}
		m, s2, ok := gaussianOf(f)
		if !ok {
			return Field{}, false, nil
		}
		mu += weights[i] * m
		sigma2 += weights[i] * weights[i] * s2
	}
	return linearGaussianResult(mu, sigma2, fields)
}

func linearGaussianResult(mu, sigma2 float64, fields []Field) (Field, bool, error) {
	f, err := GaussianResult(mu, sigma2, DFSampleSize(fields...))
	if err != nil {
		return Field{}, false, err
	}
	return f, true, nil
}

// GaussianResult packages a closed-form Gaussian aggregate (mean mu,
// variance sigma2, d.f. sample size n) into a Field: a Point when the
// variance is zero, a Normal otherwise. Columnar scans that compute mu and
// sigma2 directly from contiguous arrays use this to produce the exact
// field the row path would.
func GaussianResult(mu, sigma2 float64, n int) (Field, error) {
	if sigma2 == 0 {
		return Field{Dist: dist.Point{V: mu}, N: n}, nil
	}
	nd, err := dist.NewNormal(mu, sigma2)
	if err != nil {
		return Field{}, err
	}
	return Field{Dist: nd, N: n}, nil
}
