package dist

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Discrete is a finite discrete distribution over real support points.
// Attribute uncertainty in the paper's model may be "either continuous ...
// or discrete" (§II-A); Discrete covers the latter.
type Discrete struct {
	xs  []float64 // sorted, distinct
	ps  []float64 // same length, sums to 1
	cum []float64 // prefixSums(ps)
}

// NewDiscrete builds a discrete distribution from parallel value/probability
// slices. Values need not be sorted or distinct; duplicates are merged.
func NewDiscrete(values, probs []float64) (*Discrete, error) {
	if len(values) != len(probs) || len(values) == 0 {
		return nil, fmt.Errorf("%w: discrete needs equal-length non-empty values/probs", ErrInvalidParam)
	}
	type vp struct{ x, p float64 }
	items := make([]vp, len(values))
	total := 0.0
	for i := range values {
		if probs[i] < 0 || math.IsNaN(probs[i]) || math.IsNaN(values[i]) {
			return nil, fmt.Errorf("%w: discrete entry %d = (%v, %v)", ErrInvalidParam, i, values[i], probs[i])
		}
		items[i] = vp{values[i], probs[i]}
		total += probs[i]
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: discrete total mass %v", ErrInvalidParam, total)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].x < items[j].x })
	d := &Discrete{}
	for _, it := range items {
		k := len(d.xs)
		if k > 0 && d.xs[k-1] == it.x {
			d.ps[k-1] += it.p / total
			continue
		}
		d.xs = append(d.xs, it.x)
		d.ps = append(d.ps, it.p/total)
	}
	d.cum = prefixSums(d.ps)
	return d, nil
}

// RestoreDiscrete rebuilds a serialized discrete distribution from its
// exact normalized form: values must be strictly increasing and probs must
// already sum to 1 (within rounding). Unlike NewDiscrete it never divides
// by the total, so the probabilities are preserved bit-for-bit — required
// for the durability subsystem's bit-identical recovery guarantee.
func RestoreDiscrete(values, probs []float64) (*Discrete, error) {
	if len(values) != len(probs) || len(values) == 0 {
		return nil, fmt.Errorf("%w: discrete needs equal-length non-empty values/probs", ErrInvalidParam)
	}
	total := 0.0
	for i := range values {
		if probs[i] < 0 || math.IsNaN(probs[i]) || math.IsNaN(values[i]) {
			return nil, fmt.Errorf("%w: discrete entry %d = (%v, %v)", ErrInvalidParam, i, values[i], probs[i])
		}
		if i > 0 && !(values[i-1] < values[i]) {
			return nil, fmt.Errorf("%w: restored discrete values not strictly increasing at %d", ErrInvalidParam, i)
		}
		total += probs[i]
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("%w: restored discrete mass %v, want 1", ErrInvalidParam, total)
	}
	return &Discrete{
		xs:  append([]float64(nil), values...),
		ps:  append([]float64(nil), probs...),
		cum: prefixSums(probs),
	}, nil
}

// Empirical builds the empirical distribution of a raw sample: each
// observation carries mass 1/n. This is the distribution a Monte Carlo query
// path samples from when no parametric form is assumed.
func Empirical(obs []float64) (*Discrete, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("%w: empirical distribution of empty sample", ErrInvalidParam)
	}
	ps := make([]float64, len(obs))
	for i := range ps {
		ps[i] = 1
	}
	return NewDiscrete(obs, ps)
}

// Support returns the sorted distinct support points.
func (d *Discrete) Support() []float64 { return append([]float64(nil), d.xs...) }

// Prob returns P(X = x) (0 when x is not a support point).
func (d *Discrete) Prob(x float64) float64 {
	i := sort.SearchFloat64s(d.xs, x)
	if i < len(d.xs) && d.xs[i] == x {
		return d.ps[i]
	}
	return 0
}

func (d *Discrete) Mean() float64 {
	m := 0.0
	for i, x := range d.xs {
		m += x * d.ps[i]
	}
	return m
}

func (d *Discrete) Variance() float64 {
	m := d.Mean()
	v := 0.0
	for i, x := range d.xs {
		v += d.ps[i] * (x - m) * (x - m)
	}
	return v
}

func (d *Discrete) CDF(x float64) float64 {
	c := 0.0
	for i, xi := range d.xs {
		if xi > x {
			break
		}
		c += d.ps[i]
	}
	return c
}

func (d *Discrete) Quantile(p float64) float64 {
	checkProbPanic(p)
	c := 0.0
	for i, pi := range d.ps {
		c += pi
		if c >= p-1e-15 {
			return d.xs[i]
		}
	}
	return d.xs[len(d.xs)-1]
}

func (d *Discrete) Sample(r *Rand) float64 {
	return d.xs[pick(d.cum, d.ps, r.Float64())]
}

func (d *Discrete) String() string {
	if len(d.xs) > 6 {
		return fmt.Sprintf("Discrete{%d points on [%g, %g]}", len(d.xs), d.xs[0], d.xs[len(d.xs)-1])
	}
	var b strings.Builder
	b.WriteString("Discrete{")
	for i, x := range d.xs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g:%.3g", x, d.ps[i])
	}
	b.WriteByte('}')
	return b.String()
}

// Mixture is a finite mixture of component distributions with given weights;
// used for multimodal learned distributions (e.g. Gaussian mixtures, §III-B).
//
// Like Histogram.Probs, Weights must not be changed after construction; a
// mixture built as a literal has no prefix table and samples the same
// components without it.
type Mixture struct {
	Components []Distribution
	Weights    []float64 // normalized in NewMixture
	cum        []float64 // prefixSums(Weights), or nil for a literal
}

// NewMixture builds a mixture, validating matching lengths and positive
// total weight; weights are normalized.
func NewMixture(components []Distribution, weights []float64) (*Mixture, error) {
	if len(components) != len(weights) || len(components) == 0 {
		return nil, fmt.Errorf("%w: mixture needs equal-length non-empty components/weights", ErrInvalidParam)
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("%w: mixture weight %d = %v", ErrInvalidParam, i, w)
		}
		if components[i] == nil {
			return nil, fmt.Errorf("%w: mixture component %d is nil", ErrInvalidParam, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: mixture total weight %v", ErrInvalidParam, total)
	}
	m := &Mixture{
		Components: append([]Distribution(nil), components...),
		Weights:    make([]float64, len(weights)),
	}
	for i, w := range weights {
		m.Weights[i] = w / total
	}
	m.cum = prefixSums(m.Weights)
	return m, nil
}

// RestoreMixture rebuilds a serialized mixture from its exact normalized
// weights: they must already sum to 1 (within rounding) and are preserved
// bit-for-bit (NewMixture's renormalization would perturb them by an ulp,
// breaking bit-identical recovery).
func RestoreMixture(components []Distribution, weights []float64) (*Mixture, error) {
	if len(components) != len(weights) || len(components) == 0 {
		return nil, fmt.Errorf("%w: mixture needs equal-length non-empty components/weights", ErrInvalidParam)
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("%w: mixture weight %d = %v", ErrInvalidParam, i, w)
		}
		if components[i] == nil {
			return nil, fmt.Errorf("%w: mixture component %d is nil", ErrInvalidParam, i)
		}
		total += w
	}
	if math.Abs(total-1) > 1e-9 {
		return nil, fmt.Errorf("%w: restored mixture weight %v, want 1", ErrInvalidParam, total)
	}
	return &Mixture{
		Components: append([]Distribution(nil), components...),
		Weights:    append([]float64(nil), weights...),
		cum:        prefixSums(weights),
	}, nil
}

func (m *Mixture) Mean() float64 {
	v := 0.0
	for i, c := range m.Components {
		v += m.Weights[i] * c.Mean()
	}
	return v
}

func (m *Mixture) Variance() float64 {
	mean := m.Mean()
	v := 0.0
	for i, c := range m.Components {
		cm := c.Mean()
		v += m.Weights[i] * (c.Variance() + (cm-mean)*(cm-mean))
	}
	return v
}

func (m *Mixture) CDF(x float64) float64 {
	v := 0.0
	for i, c := range m.Components {
		v += m.Weights[i] * c.CDF(x)
	}
	return v
}

func (m *Mixture) Quantile(p float64) float64 {
	checkProbPanic(p)
	// Bracket using component quantiles, then bisect the mixture CDF.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.Components {
		lo = math.Min(lo, c.Quantile(p))
		hi = math.Max(hi, c.Quantile(p))
	}
	if lo == hi {
		return lo
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(hi)) {
			break
		}
	}
	return (lo + hi) / 2
}

func (m *Mixture) Sample(r *Rand) float64 {
	return m.Components[pick(m.cum, m.Weights, r.Float64())].Sample(r)
}

func (m *Mixture) String() string {
	return fmt.Sprintf("Mixture{%d components}", len(m.Components))
}
