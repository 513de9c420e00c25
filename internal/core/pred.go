package core

import (
	"fmt"
	"math"

	"repro/internal/hypothesis"
	"repro/internal/randvar"
	"repro/internal/sql"
	"repro/internal/stream"
)

// predOutcome is the evaluation of a WHERE clause against one tuple under
// the possible-world semantics: the probability the predicate holds, the
// d.f. sample size behind that probability (Lemma 3; 0 when exact), and
// whether a significance predicate answered UNSURE.
type predOutcome struct {
	Prob   float64
	N      int
	Unsure bool
}

// compiledPred evaluates a boolean expression against one tuple.
type compiledPred func(ev *randvar.Evaluator, t *stream.Tuple) (predOutcome, error)

// combineN merges d.f. sample sizes per Lemma 3 (0 = exact, does not
// constrain).
func combineN(a, b int) int {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

// compilePredicate compiles a WHERE expression. Atoms on independent
// columns combine under the independence assumption: AND multiplies
// probabilities, OR uses inclusion–exclusion, NOT complements. draws reports
// whether the predicate may draw from the evaluator it is given: only a
// comparison on compileCmpAtom's general D = L − R path can, so a predicate
// that does not gives every query the same verdict on a tuple.
func compilePredicate(schema *stream.Schema, expr sql.Expr, cfg Config) (pred compiledPred, draws bool, err error) {
	switch e := expr.(type) {
	case *sql.LogicalExpr:
		l, ld, err := compilePredicate(schema, e.L, cfg)
		if err != nil {
			return nil, false, err
		}
		r, rd, err := compilePredicate(schema, e.R, cfg)
		if err != nil {
			return nil, false, err
		}
		isAnd := e.Op == "AND"
		return func(ev *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
			lo, err := l(ev, t)
			if err != nil {
				return predOutcome{}, err
			}
			ro, err := r(ev, t)
			if err != nil {
				return predOutcome{}, err
			}
			out := predOutcome{
				N:      combineN(lo.N, ro.N),
				Unsure: lo.Unsure || ro.Unsure,
			}
			if isAnd {
				out.Prob = lo.Prob * ro.Prob
			} else {
				out.Prob = lo.Prob + ro.Prob - lo.Prob*ro.Prob
			}
			return out, nil
		}, ld || rd, nil
	case *sql.NotExpr:
		x, draws, err := compilePredicate(schema, e.X, cfg)
		if err != nil {
			return nil, false, err
		}
		return func(ev *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
			o, err := x(ev, t)
			if err != nil {
				return predOutcome{}, err
			}
			o.Prob = 1 - o.Prob
			return o, nil
		}, draws, nil
	case *sql.CmpExpr:
		return compileCmpAtom(schema, e)
	case *sql.CallExpr:
		return compilePredicateCall(schema, e, cfg)
	}
	return nil, false, fmt.Errorf("core: %s is not a boolean predicate", expr)
}

// compileCmpAtom compiles "exprL op exprR". The general strategy evaluates
// D = exprL − exprR as a random variable and returns P(D op 0); when both
// sides are deterministic the comparison is exact. That path may draw (a
// non-linear D is Monte Carlo); the column-vs-constant form reads CDFs and
// never does, and a PROB threshold draws only if its comparison does.
func compileCmpAtom(schema *stream.Schema, e *sql.CmpExpr) (pred compiledPred, draws bool, err error) {
	// PROB(...) >= tau and friends: the left side is the PROB call.
	if call, ok := e.L.(*sql.CallExpr); ok && call.Func == "PROB" {
		return compileProbThreshold(schema, call, e.Op, e.R)
	}
	if call, ok := e.R.(*sql.CallExpr); ok && call.Func == "PROB" {
		flipped, err := flipCmp(e.Op)
		if err != nil {
			return nil, false, err
		}
		return compileProbThreshold(schema, call, flipped, e.L)
	}
	// Fast path: "col op const" (either order) evaluates directly on the
	// field's distribution — no Monte Carlo — preserving point masses of
	// discrete distributions and the paper's CDF-based probability
	// computation.
	if pred, ok, err := compileColConstAtom(schema, e); err != nil {
		return nil, false, err
	} else if ok {
		return pred, false, nil
	}
	diff := &sql.BinaryExpr{Op: "-", L: e.L, R: e.R}
	ce, err := compileScalarExpr(schema, diff)
	if err != nil {
		return nil, false, err
	}
	op := e.Op
	return func(ev *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
		res, err := ce.eval(ev, t)
		if err != nil {
			return predOutcome{}, err
		}
		f := res.Field
		if f.IsDet() {
			v := f.Dist.Mean()
			return predOutcome{Prob: boolProb(cmpScalar(v, op))}, nil
		}
		var p float64
		switch op {
		case ">", ">=":
			p = 1 - f.Dist.CDF(0)
		case "<", "<=":
			p = f.Dist.CDF(0)
		case "=":
			p = pointMass(f, 0)
		case "<>":
			p = 1 - pointMass(f, 0)
		default:
			return predOutcome{}, fmt.Errorf("core: unsupported comparison %q", op)
		}
		return predOutcome{Prob: p, N: f.N}, nil
	}, true, nil
}

// compileColConstAtom handles "col op const" and "const op col" directly
// against the column's distribution. ok is false when the comparison has a
// different shape.
func compileColConstAtom(schema *stream.Schema, e *sql.CmpExpr) (compiledPred, bool, error) {
	col, colOK := e.L.(*sql.ColumnRef)
	op := e.Op
	var constExpr sql.Expr = e.R
	if !colOK {
		if col, colOK = e.R.(*sql.ColumnRef); !colOK {
			return nil, false, nil
		}
		flipped, err := flipCmp(e.Op)
		if err != nil {
			return nil, false, nil // unusual op: fall back to the general path
		}
		op = flipped
		constExpr = e.L
	}
	c, err := constValue(constExpr)
	if err != nil {
		return nil, false, nil // not a constant: general path
	}
	idx, ok := schema.Index(col.Name)
	if !ok {
		return nil, false, fmt.Errorf("core: unknown column %q", col.Name)
	}
	return func(_ *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
		f := t.Fields[idx]
		if f.IsDet() {
			return predOutcome{Prob: boolProb(cmpScalar(f.Dist.Mean()-c, op))}, nil
		}
		var p float64
		switch op {
		case ">":
			// CDF(c) includes P(X = c) for discrete distributions, so
			// 1 − CDF(c) is exactly P(X > c).
			p = 1 - f.Dist.CDF(c)
		case ">=":
			p = 1 - f.Dist.CDF(c) + pointMass(f, c)
		case "<":
			p = f.Dist.CDF(c) - pointMass(f, c)
		case "<=":
			p = f.Dist.CDF(c)
		case "=":
			p = pointMass(f, c)
		case "<>":
			p = 1 - pointMass(f, c)
		default:
			return predOutcome{}, fmt.Errorf("core: unsupported comparison %q", op)
		}
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		return predOutcome{Prob: p, N: f.N}, nil
	}, true, nil
}

// cmpScalar applies op to a deterministic difference v (= L − R).
func cmpScalar(v float64, op string) bool {
	switch op {
	case ">":
		return v > 0
	case ">=":
		return v >= 0
	case "<":
		return v < 0
	case "<=":
		return v <= 0
	case "=":
		return v == 0
	case "<>":
		return v != 0
	}
	return false
}

func boolProb(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// pointMass returns P(X = v); nonzero only for distributions with atoms.
func pointMass(f randvar.Field, v float64) float64 {
	type pointProber interface{ Prob(float64) float64 }
	if d, ok := f.Dist.(pointProber); ok {
		return d.Prob(v)
	}
	return 0
}

func flipCmp(op string) (string, error) {
	switch op {
	case ">":
		return "<", nil
	case "<":
		return ">", nil
	case ">=":
		return "<=", nil
	case "<=":
		return ">=", nil
	case "=", "<>":
		return op, nil
	}
	return "", fmt.Errorf("core: unsupported comparison %q", op)
}

// compileProbThreshold compiles PROB(inner) op tau — the paper's
// probability-threshold predicate. The decision is boolean (accuracy
// oblivious, unlike pTest).
func compileProbThreshold(schema *stream.Schema, call *sql.CallExpr, op string, tauExpr sql.Expr) (pred compiledPred, draws bool, err error) {
	if len(call.Args) != 1 {
		return nil, false, fmt.Errorf("core: PROB takes 1 argument, got %d", len(call.Args))
	}
	inner, ok := call.Args[0].(*sql.CmpExpr)
	if !ok {
		return nil, false, fmt.Errorf("core: PROB argument must be a comparison, got %s", call.Args[0])
	}
	innerPred, draws, err := compileCmpAtom(schema, inner)
	if err != nil {
		return nil, false, err
	}
	tau, err := constValue(tauExpr)
	if err != nil {
		return nil, false, fmt.Errorf("core: PROB threshold: %w", err)
	}
	if tau < 0 || tau > 1 {
		return nil, false, fmt.Errorf("core: PROB threshold %v outside [0,1]", tau)
	}
	return func(ev *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
		o, err := innerPred(ev, t)
		if err != nil {
			return predOutcome{}, err
		}
		return predOutcome{Prob: boolProb(cmpScalar(o.Prob-tau, op))}, nil
	}, draws, nil
}

// compilePredicateCall compiles the significance predicates MTEST, MDTEST,
// and PTEST. With one significance level the basic (single) test runs; with
// two, algorithm COUPLED-TESTS bounds both error rates, and UNSURE is
// surfaced in the outcome. Only a PTEST's comparison can draw.
func compilePredicateCall(schema *stream.Schema, call *sql.CallExpr, cfg Config) (compiledPred, bool, error) {
	switch call.Func {
	case "PROB":
		return nil, false, fmt.Errorf("core: PROB(...) must be compared against a threshold, e.g. PROB(x > 5) >= 0.8")
	case "MTEST":
		// MTEST(col, 'op', c, α₁ [, α₂])
		if len(call.Args) != 4 && len(call.Args) != 5 {
			return nil, false, fmt.Errorf("core: MTEST takes 4 or 5 arguments, got %d", len(call.Args))
		}
		colIdx, err := probColumnArg(schema, call.Args[0], "MTEST field")
		if err != nil {
			return nil, false, err
		}
		op, err := opArg(call.Args[1])
		if err != nil {
			return nil, false, err
		}
		c, err := constValue(call.Args[2])
		if err != nil {
			return nil, false, err
		}
		a1, a2, coupled, err := alphaArgs(call.Args[3:])
		if err != nil {
			return nil, false, err
		}
		return func(_ *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
			f := t.Fields[colIdx]
			stats, err := fieldStats(f)
			if err != nil {
				return predOutcome{}, err
			}
			if coupled {
				res, err := hypothesis.CoupledMTest(stats, op, c, a1, a2)
				return sigOutcome(res), err
			}
			ok, err := hypothesis.MTest(stats, op, c, a1)
			return predOutcome{Prob: boolProb(ok)}, err
		}, false, nil
	case "MDTEST":
		// MDTEST(colX, colY, 'op', c, α₁ [, α₂])
		if len(call.Args) != 5 && len(call.Args) != 6 {
			return nil, false, fmt.Errorf("core: MDTEST takes 5 or 6 arguments, got %d", len(call.Args))
		}
		xIdx, err := probColumnArg(schema, call.Args[0], "MDTEST field X")
		if err != nil {
			return nil, false, err
		}
		yIdx, err := probColumnArg(schema, call.Args[1], "MDTEST field Y")
		if err != nil {
			return nil, false, err
		}
		op, err := opArg(call.Args[2])
		if err != nil {
			return nil, false, err
		}
		c, err := constValue(call.Args[3])
		if err != nil {
			return nil, false, err
		}
		a1, a2, coupled, err := alphaArgs(call.Args[4:])
		if err != nil {
			return nil, false, err
		}
		return func(_ *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
			xs, err := fieldStats(t.Fields[xIdx])
			if err != nil {
				return predOutcome{}, err
			}
			ys, err := fieldStats(t.Fields[yIdx])
			if err != nil {
				return predOutcome{}, err
			}
			if coupled {
				res, err := hypothesis.CoupledMDTest(xs, ys, op, c, a1, a2)
				return sigOutcome(res), err
			}
			ok, err := hypothesis.MDTest(xs, ys, op, c, a1)
			return predOutcome{Prob: boolProb(ok)}, err
		}, false, nil
	case "KSTEST":
		// KSTEST(colX, colY, α) — are the two distributions different?
		// KSTEST(colX, colY, minEffect, α₁, α₂) — coupled three-state form.
		if len(call.Args) != 3 && len(call.Args) != 5 {
			return nil, false, fmt.Errorf("core: KSTEST takes 3 or 5 arguments, got %d", len(call.Args))
		}
		xIdx, err := probColumnArg(schema, call.Args[0], "KSTEST field X")
		if err != nil {
			return nil, false, err
		}
		yIdx, err := probColumnArg(schema, call.Args[1], "KSTEST field Y")
		if err != nil {
			return nil, false, err
		}
		if len(call.Args) == 3 {
			alpha, err := constValue(call.Args[2])
			if err != nil {
				return nil, false, err
			}
			if badAlpha(alpha) {
				return nil, false, fmt.Errorf("core: significance level %v outside (0,1)", alpha)
			}
			return func(_ *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
				fx, fy := t.Fields[xIdx], t.Fields[yIdx]
				if fx.N < 2 || fy.N < 2 {
					return predOutcome{}, fmt.Errorf("core: KSTEST needs sampled fields")
				}
				reject, _, _, err := hypothesis.KSTest(fx.Dist, fx.N, fy.Dist, fy.N, alpha)
				return predOutcome{Prob: boolProb(reject)}, err
			}, false, nil
		}
		minEffect, err := constValue(call.Args[2])
		if err != nil {
			return nil, false, err
		}
		a1, a2, _, err := alphaArgs(call.Args[3:])
		if err != nil {
			return nil, false, err
		}
		return func(_ *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
			fx, fy := t.Fields[xIdx], t.Fields[yIdx]
			if fx.N < 2 || fy.N < 2 {
				return predOutcome{}, fmt.Errorf("core: KSTEST needs sampled fields")
			}
			res, err := hypothesis.CoupledKSTest(fx.Dist, fx.N, fy.Dist, fy.N, minEffect, a1, a2)
			return sigOutcome(res), err
		}, false, nil
	case "PTEST":
		// PTEST(pred, τ, α₁ [, α₂]); H1 is Pr[pred] > τ as in §IV-B.
		if len(call.Args) != 3 && len(call.Args) != 4 {
			return nil, false, fmt.Errorf("core: PTEST takes 3 or 4 arguments, got %d", len(call.Args))
		}
		inner, ok := call.Args[0].(*sql.CmpExpr)
		if !ok {
			return nil, false, fmt.Errorf("core: PTEST predicate must be a comparison, got %s", call.Args[0])
		}
		// PTEST consumes the inner predicate's d.f. sample size. A
		// probability-threshold comparison yields an exact boolean (N = 0)
		// and a comparison over only deterministic columns yields a point
		// mass (N = 0); either shape would fail on every tuple at emission,
		// so reject both at plan time.
		isProb := func(e sql.Expr) bool {
			c, ok := e.(*sql.CallExpr)
			return ok && c.Func == "PROB"
		}
		if isProb(inner.L) || isProb(inner.R) {
			return nil, false, fmt.Errorf("core: PTEST predicate %s is a probability-threshold comparison, which carries no sample size; test the comparison directly", inner)
		}
		if !refsProbColumn(schema, inner) {
			return nil, false, fmt.Errorf("core: PTEST predicate %s references no probabilistic column, so no sample size is available", inner)
		}
		innerPred, draws, err := compileCmpAtom(schema, inner)
		if err != nil {
			return nil, false, err
		}
		tau, err := constValue(call.Args[1])
		if err != nil {
			return nil, false, err
		}
		a1, a2, coupled, err := alphaArgs(call.Args[2:])
		if err != nil {
			return nil, false, err
		}
		return func(ev *randvar.Evaluator, t *stream.Tuple) (predOutcome, error) {
			o, err := innerPred(ev, t)
			if err != nil {
				return predOutcome{}, err
			}
			if o.N < 1 {
				return predOutcome{}, fmt.Errorf("core: PTEST needs a sampled field (no sample size available)")
			}
			if coupled {
				res, err := hypothesis.CoupledPTest(o.Prob, o.N, hypothesis.Greater, tau, a1, a2)
				return sigOutcome(res), err
			}
			ok, err := hypothesis.PTest(o.Prob, o.N, hypothesis.Greater, tau, a1)
			return predOutcome{Prob: boolProb(ok)}, err
		}, draws, nil
	}
	return nil, false, fmt.Errorf("core: %s is not a boolean predicate", call.Func)
}

func sigOutcome(r hypothesis.Result) predOutcome {
	switch r {
	case hypothesis.True:
		return predOutcome{Prob: 1}
	case hypothesis.False:
		return predOutcome{Prob: 0}
	default:
		// UNSURE: the data cannot support a decision at the requested
		// error rates. The tuple passes through (Prob 1) with the Unsure
		// flag set; the engine drops or keeps it per Config.DropUnsure.
		return predOutcome{Prob: 1, Unsure: true}
	}
}

// fieldStats derives test statistics from a probabilistic field, requiring
// a retained sample size.
func fieldStats(f randvar.Field) (hypothesis.Stats, error) {
	if f.N < 2 {
		return hypothesis.Stats{}, fmt.Errorf("core: significance predicate needs a field with sample size ≥ 2, have %d", f.N)
	}
	return hypothesis.StatsFromDistribution(f.Dist, f.N)
}

// columnArg resolves an argument that must be a column reference.
// probColumnArg resolves a column argument that must be probabilistic. The
// significance tests consume per-field sample statistics (mean, variance,
// sample size) which deterministic columns never carry, so such predicates
// fail on every tuple; rejecting them here moves that deterministic failure
// from first emission to REGISTER time.
func probColumnArg(schema *stream.Schema, e sql.Expr, what string) (int, error) {
	idx, err := columnArg(schema, e, what)
	if err != nil {
		return 0, err
	}
	if !schema.Columns[idx].Probabilistic {
		return 0, fmt.Errorf("core: %s must be a probabilistic column; %q is deterministic",
			what, schema.Columns[idx].Name)
	}
	return idx, nil
}

// refsProbColumn reports whether any column referenced by e is
// probabilistic. Expressions over only deterministic columns evaluate to
// point masses with no sample size, so sample-size-hungry predicates over
// them fail on every tuple — callers reject such shapes at plan time.
func refsProbColumn(schema *stream.Schema, e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.ColumnRef:
		idx, ok := schema.Index(x.Name)
		return ok && schema.Columns[idx].Probabilistic
	case *sql.CmpExpr:
		return refsProbColumn(schema, x.L) || refsProbColumn(schema, x.R)
	case *sql.BinaryExpr:
		return refsProbColumn(schema, x.L) || refsProbColumn(schema, x.R)
	case *sql.LogicalExpr:
		return refsProbColumn(schema, x.L) || refsProbColumn(schema, x.R)
	case *sql.UnaryExpr:
		return refsProbColumn(schema, x.X)
	case *sql.NotExpr:
		return refsProbColumn(schema, x.X)
	case *sql.CallExpr:
		for _, a := range x.Args {
			if refsProbColumn(schema, a) {
				return true
			}
		}
	}
	return false
}

func columnArg(schema *stream.Schema, e sql.Expr, what string) (int, error) {
	col, ok := e.(*sql.ColumnRef)
	if !ok {
		return 0, fmt.Errorf("core: %s must be a column, got %s", what, e)
	}
	idx, ok := schema.Index(col.Name)
	if !ok {
		return 0, fmt.Errorf("core: unknown column %q", col.Name)
	}
	return idx, nil
}

// opArg resolves a quoted operator argument ('<', '>', '<>').
func opArg(e sql.Expr) (hypothesis.Op, error) {
	s, ok := e.(*sql.StringLit)
	if !ok {
		return 0, fmt.Errorf("core: test operator must be a quoted string, got %s", e)
	}
	return hypothesis.ParseOp(s.Value)
}

// constValue resolves a numeric literal argument.
func constValue(e sql.Expr) (float64, error) {
	switch v := e.(type) {
	case *sql.NumberLit:
		return v.Value, nil
	case *sql.UnaryExpr:
		if inner, ok := v.X.(*sql.NumberLit); ok && v.Op == "-" {
			return -inner.Value, nil
		}
	}
	return 0, fmt.Errorf("core: expected a numeric constant, got %s", e)
}

// alphaArgs parses the trailing significance levels: one (single test) or
// two (coupled tests).
func alphaArgs(args []sql.Expr) (a1, a2 float64, coupled bool, err error) {
	a1, err = constValue(args[0])
	if err != nil {
		return 0, 0, false, err
	}
	if badAlpha(a1) {
		return 0, 0, false, fmt.Errorf("core: significance level %v outside (0,1)", a1)
	}
	if len(args) == 2 {
		a2, err = constValue(args[1])
		if err != nil {
			return 0, 0, false, err
		}
		if badAlpha(a2) {
			return 0, 0, false, fmt.Errorf("core: significance level %v outside (0,1)", a2)
		}
		return a1, a2, true, nil
	}
	return a1, 0, false, nil
}

func badAlpha(a float64) bool { return math.IsNaN(a) || a <= 0 || a >= 1 }
