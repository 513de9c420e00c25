package stream

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/randvar"
)

// AggKind names a window aggregate function.
type AggKind int

const (
	// Avg is the mean of the aggregated fields.
	Avg AggKind = iota
	// Sum is the total of the aggregated fields.
	Sum
	// Count is the number of aggregated tuples (deterministic), or the
	// expected count when tuples carry membership probabilities.
	Count
	// Min is the minimum of the aggregated fields.
	Min
	// Max is the maximum of the aggregated fields.
	Max
)

// ParseAggKind converts the SQL spelling of an aggregate into an AggKind.
func ParseAggKind(s string) (AggKind, error) {
	switch s {
	case "AVG", "avg":
		return Avg, nil
	case "SUM", "sum":
		return Sum, nil
	case "COUNT", "count":
		return Count, nil
	case "MIN", "min":
		return Min, nil
	case "MAX", "max":
		return Max, nil
	}
	return 0, fmt.Errorf("stream: unknown aggregate %q", s)
}

func (k AggKind) String() string {
	switch k {
	case Avg:
		return "AVG"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// Aggregate computes the aggregate of the given distribution-valued fields
// under the independence assumption.
//
// Avg and Sum take the Gaussian closed form when every input is Gaussian or
// deterministic — the paper's fast path ("the query processor can compute
// the AVG result as a Gaussian distribution", §V-C) — and fall back to
// Monte Carlo otherwise. Min and Max always use Monte Carlo. The result's
// d.f. sample size follows Lemma 3.
func Aggregate(e *randvar.Evaluator, kind AggKind, fields []randvar.Field) (randvar.Result, error) {
	if len(fields) == 0 {
		return randvar.Result{}, errors.New("stream: aggregate over zero fields")
	}
	switch kind {
	case Count:
		return randvar.Result{Field: randvar.Det(float64(len(fields)))}, nil
	case Avg, Sum:
		w := 1.0
		if kind == Avg {
			w = 1 / float64(len(fields))
		}
		if f, ok, err := randvar.LinearGaussianUniform(w, 0, fields...); err != nil {
			return randvar.Result{}, err
		} else if ok {
			return randvar.Result{Field: f}, nil
		}
		return e.Apply(func(a []float64) (float64, error) {
			s := 0.0
			for _, v := range a {
				s += v
			}
			return s * w, nil
		}, fields...)
	case Min:
		return e.Apply(func(a []float64) (float64, error) {
			m := a[0]
			for _, v := range a[1:] {
				m = math.Min(m, v)
			}
			return m, nil
		}, fields...)
	case Max:
		return e.Apply(func(a []float64) (float64, error) {
			m := a[0]
			for _, v := range a[1:] {
				m = math.Max(m, v)
			}
			return m, nil
		}, fields...)
	}
	return randvar.Result{}, fmt.Errorf("stream: unknown aggregate %v", kind)
}

// AggregateColumn computes the aggregate of column c of a columnar window,
// scanning the column arrays directly when the Gaussian closed form
// applies. When it does not (a non-Gaussian field is present, or the
// aggregate is Min/Max), the column is materialized into *scratch and the
// computation delegates to Aggregate, so errors, RNG consumption, and
// results are bit-identical to Aggregate over the same fields at any worker
// count.
//
// scratch is a caller-owned reusable buffer (may be nil); the materialized
// fields are consumed within the call.
func AggregateColumn(e *randvar.Evaluator, kind AggKind, w *ColumnWindow, c int, scratch *[]randvar.Field) (randvar.Result, error) {
	m := w.Len()
	if m == 0 {
		return randvar.Result{}, errors.New("stream: aggregate over zero fields")
	}
	switch kind {
	case Count:
		return randvar.Result{Field: randvar.Det(float64(m))}, nil
	case Avg, Sum:
		if w.ColumnGaussian(c) {
			wt := 1.0
			if kind == Avg {
				wt = 1 / float64(m)
			}
			f, err := w.LinearUniform(c, wt)
			if err != nil {
				return randvar.Result{}, err
			}
			return randvar.Result{Field: f}, nil
		}
	}
	var fields []randvar.Field
	if scratch != nil {
		fields = (*scratch)[:0]
	}
	fields = w.AppendColumnFields(fields, c)
	if scratch != nil {
		*scratch = fields
	}
	return Aggregate(e, kind, fields)
}
