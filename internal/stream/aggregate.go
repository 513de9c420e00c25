package stream

import (
	"errors"
	"fmt"

	"repro/internal/dist"
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
		wt := 1.0
		if kind == Avg {
			wt = 1 / float64(len(fields))
		}
		w := make([]float64, len(fields))
		for i := range w {
			w[i] = wt
		}
		if f, ok, err := randvar.LinearGaussian(w, 0, fields...); err != nil {
			return randvar.Result{}, err
		} else if ok {
			return randvar.Result{Field: f}, nil
		}
	}
	col := e.Column()
	defer col.Reset()
	for _, f := range fields {
		col.Add(f)
	}
	return AggregateCompiled(e, kind, col)
}

// AggregateColumn computes the aggregate of column c of a columnar window,
// scanning the column arrays directly when the Gaussian closed form
// applies. When it does not (a non-Gaussian field is present, or the
// aggregate is Min/Max), the column is compiled oldest-first into e's own
// column and drawn by AggregateCompiled, so errors, RNG consumption, and
// results are bit-identical to Aggregate over the same fields at any worker
// count.
//
// scratch is unused: the compiled column lives on the evaluator. The
// parameter stays so that existing callers keep compiling.
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
	col := e.Column()
	defer col.Reset()
	w.CompileColumn(col, c)
	return AggregateCompiled(e, kind, col)
}

// AggregateCompiled computes an Avg, Sum, Min or Max of a compiled column
// by Monte Carlo on e's generator: AVG and SUM fold each joint draw into its
// sum, added in column order, times 1/len or 1; MIN and MAX into its least
// or greatest variate. col is only read, so a plan group compiles a window
// column once per emission and each member draws from it on its own
// evaluator.
func AggregateCompiled(e *randvar.Evaluator, kind AggKind, col *randvar.Column) (randvar.Result, error) {
	var f dist.Fold
	switch kind {
	case Avg:
		f = dist.Fold{Op: dist.FoldSum, W: 1 / float64(col.Len())}
	case Sum:
		f = dist.Fold{Op: dist.FoldSum, W: 1}
	case Min:
		f = dist.Fold{Op: dist.FoldMin}
	case Max:
		f = dist.Fold{Op: dist.FoldMax}
	default:
		return randvar.Result{}, fmt.Errorf("stream: unknown aggregate %v", kind)
	}
	return e.Draw(col, f)
}
