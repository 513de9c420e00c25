// Package hypothesis implements the paper's §IV: significance predicates
// for decision making over probability distributions with limited accuracy.
//
// Three basic predicates are provided as built-ins, mirroring the paper's
// syntax:
//
//   - mTest(X, op, c, α)      — mean test: H0: E(X) = c vs H1: E(X) op c
//   - mdTest(X, Y, op, c, α)  — mean difference test:
//     H0: E(X) − E(Y) = c vs H1: E(X) − E(Y) op c
//   - pTest(pred, τ, α)       — probability test:
//     H0: Pr[pred] = τ vs H1: Pr[pred] op τ
//
// Each basic test controls only the false positive (type I) rate at the
// significance level α. Algorithm COUPLED-TESTS (§IV-C) runs the original
// test coupled with its inverse so that both the false positive rate (α₁)
// and the false negative rate (α₂) are controlled, at the cost of a third
// possible answer, Unsure (Theorem 3).
package hypothesis

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/stat"
)

// Op is the comparison operator of a significance predicate's alternative
// hypothesis: one of "<", ">", and "<>" (§IV-B).
type Op int

const (
	// Less is the alternative hypothesis "parameter < c".
	Less Op = iota
	// Greater is the alternative hypothesis "parameter > c".
	Greater
	// NotEqual is the two-sided alternative "parameter <> c".
	NotEqual
)

// ParseOp converts the SQL spelling of an operator into an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return Less, nil
	case ">":
		return Greater, nil
	case "<>", "!=":
		return NotEqual, nil
	}
	return 0, fmt.Errorf("hypothesis: unknown operator %q (want <, >, or <>)", s)
}

// Inverse returns the inverse operator: '>' and '<' are inverse of each
// other (line 9 of COUPLED-TESTS). NotEqual has no inverse; COUPLED-TESTS
// handles it by splitting into two one-sided tests instead.
func (op Op) Inverse() (Op, error) {
	switch op {
	case Less:
		return Greater, nil
	case Greater:
		return Less, nil
	}
	return 0, errors.New("hypothesis: '<>' has no inverse operator")
}

func (op Op) String() string {
	switch op {
	case Less:
		return "<"
	case Greater:
		return ">"
	case NotEqual:
		return "<>"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Result is the three-state answer of a coupled significance predicate
// (§IV-C): True, False, or Unsure when neither error-rate bound can be met.
type Result int

const (
	// False: the inverse test accepted the opposite alternative; the
	// false negative rate of reporting False is bounded by α₂.
	False Result = iota
	// True: the original test rejected H0; the false positive rate is
	// bounded by α₁.
	True
	// Unsure: the data does not support a decision at the requested
	// error rates; acquire more observations.
	Unsure
)

func (r Result) String() string {
	switch r {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	case Unsure:
		return "UNSURE"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Stats summarizes a probabilistic field for testing: the (estimated) mean,
// standard deviation, and the (d.f.) sample size the distribution was
// learned from. The tests operate directly on these statistics — the
// efficiency the paper stresses ("very efficient by directly operating on
// the probability distributions using the accuracy information").
type Stats struct {
	Mean float64
	SD   float64
	N    int
}

// StatsFromSample extracts test statistics from a raw sample.
func StatsFromSample(s *learn.Sample) (Stats, error) {
	mean, err := s.Mean()
	if err != nil {
		return Stats{}, err
	}
	sd, err := s.StdDev()
	if err != nil {
		return Stats{}, err
	}
	return Stats{Mean: mean, SD: sd, N: s.Size()}, nil
}

// StatsFromDistribution extracts test statistics from a learned distribution
// and its (d.f.) sample size n.
func StatsFromDistribution(d dist.Distribution, n int) (Stats, error) {
	if d == nil {
		return Stats{}, errors.New("hypothesis: nil distribution")
	}
	if n < 2 {
		return Stats{}, fmt.Errorf("hypothesis: sample size %d, need ≥ 2", n)
	}
	return Stats{Mean: d.Mean(), SD: math.Sqrt(d.Variance()), N: n}, nil
}

func (s Stats) validate() error {
	if s.N < 2 {
		return fmt.Errorf("hypothesis: sample size %d, need ≥ 2", s.N)
	}
	if s.SD < 0 || math.IsNaN(s.SD) || math.IsNaN(s.Mean) {
		return fmt.Errorf("hypothesis: invalid statistics mean=%v sd=%v", s.Mean, s.SD)
	}
	return nil
}

func checkAlpha(alpha float64) error {
	if err := stat.CheckProb(alpha); err != nil {
		return fmt.Errorf("hypothesis: significance level %v outside (0,1)", alpha)
	}
	return nil
}

// decide compares a test statistic against the critical region for op at
// level alpha with n the sample size behind the statistic. It reports
// whether H0 is rejected in favor of H1. The critical value follows Lemma 2's
// switch: Student's t with n−1 degrees of freedom for n < 30, normal from
// there on.
func decide(tstat float64, op Op, alpha float64, n int) (bool, error) {
	switch op {
	case Greater:
		crit, err := stat.MeanCritical(alpha, n)
		if err != nil {
			return false, err
		}
		return tstat > crit, nil
	case Less:
		crit, err := stat.MeanCritical(alpha, n)
		if err != nil {
			return false, err
		}
		return tstat < -crit, nil
	case NotEqual:
		crit, err := stat.MeanCritical(alpha/2, n)
		if err != nil {
			return false, err
		}
		return math.Abs(tstat) > crit, nil
	}
	return false, fmt.Errorf("hypothesis: unknown operator %v", op)
}

// MTest is the basic mean test (§IV-B): it rejects H0: E(X) = c in favor of
// H1: E(X) op c at significance level alpha, returning true when H1 is
// accepted. Only the false positive rate is controlled; use CoupledMTest to
// bound both error rates.
func MTest(x Stats, op Op, c, alpha float64) (bool, error) {
	if err := x.validate(); err != nil {
		return false, err
	}
	if err := checkAlpha(alpha); err != nil {
		return false, err
	}
	if x.SD == 0 {
		// Degenerate sample: the mean is known exactly.
		switch op {
		case Greater:
			return x.Mean > c, nil
		case Less:
			return x.Mean < c, nil
		default:
			return x.Mean != c, nil
		}
	}
	tstat := (x.Mean - c) / (x.SD / math.Sqrt(float64(x.N)))
	return decide(tstat, op, alpha, x.N)
}

// MDTest is the basic mean difference test (§IV-B): it rejects
// H0: E(X) − E(Y) = c in favor of H1: E(X) − E(Y) op c, using Welch's
// two-sample statistic with the Welch–Satterthwaite degrees of freedom.
// The most common usage is c = 0, comparing E(X) with E(Y).
func MDTest(x, y Stats, op Op, c, alpha float64) (bool, error) {
	if err := x.validate(); err != nil {
		return false, err
	}
	if err := y.validate(); err != nil {
		return false, err
	}
	if err := checkAlpha(alpha); err != nil {
		return false, err
	}
	vx := x.SD * x.SD / float64(x.N)
	vy := y.SD * y.SD / float64(y.N)
	se := math.Sqrt(vx + vy)
	if se == 0 {
		diff := x.Mean - y.Mean
		switch op {
		case Greater:
			return diff > c, nil
		case Less:
			return diff < c, nil
		default:
			return diff != c, nil
		}
	}
	tstat := (x.Mean - y.Mean - c) / se
	// Welch–Satterthwaite effective degrees of freedom, floored at 1.
	df := (vx + vy) * (vx + vy) /
		(vx*vx/float64(x.N-1) + vy*vy/float64(y.N-1))
	n := int(math.Max(2, math.Round(df+1))) // decide() subtracts 1 again
	return decide(tstat, op, alpha, n)
}

// PTest is the basic probability test (§IV-B): given the observed
// proportion phat of n observations satisfying a predicate, it rejects
// H0: Pr[pred] = tau in favor of H1: Pr[pred] op tau using the population
// proportion test. A probabilistic threshold query "Pr[pred] > τ" is the
// special case op = Greater without the significance level.
func PTest(phat float64, n int, op Op, tau, alpha float64) (bool, error) {
	if n < 1 {
		return false, fmt.Errorf("hypothesis: pTest needs n ≥ 1, have %d", n)
	}
	if phat < 0 || phat > 1 || math.IsNaN(phat) {
		return false, fmt.Errorf("hypothesis: proportion %v outside [0,1]", phat)
	}
	if tau <= 0 || tau >= 1 || math.IsNaN(tau) {
		return false, fmt.Errorf("hypothesis: threshold τ=%v outside (0,1)", tau)
	}
	if err := checkAlpha(alpha); err != nil {
		return false, err
	}
	// Under H0 the proportion's standard error is sqrt(τ(1−τ)/n); the
	// normal approximation is the standard population proportion test.
	z := (phat - tau) / math.Sqrt(tau*(1-tau)/float64(n))
	switch op {
	case Greater:
		return z > stat.ZUpper(alpha), nil
	case Less:
		return z < -stat.ZUpper(alpha), nil
	case NotEqual:
		return math.Abs(z) > stat.ZUpper(alpha/2), nil
	}
	return false, fmt.Errorf("hypothesis: unknown operator %v", op)
}

// TestFunc runs a basic significance test with the given alternative
// operator and significance level, reporting whether H1 was accepted.
// COUPLED-TESTS is expressed over this abstraction so it applies uniformly
// to mTest, mdTest, and pTest (all three "have a hypothesis test
// component").
type TestFunc func(op Op, alpha float64) (bool, error)

// Coupled is algorithm COUPLED-TESTS (§IV-C): it runs the basic test under
// the original operator op and its inverse so that the false positive rate
// is at most alpha1 and the false negative rate at most alpha2 (Theorem 3).
//
// For one-sided op: T₁ = (op, α₁); if T₁ accepts → True. Otherwise
// T₂ = (inverse op, α₂); if T₂ accepts → False; otherwise Unsure.
//
// For op = NotEqual: T₁ = (<, α₁/2) and T₂ = (>, α₁/2); True when either
// accepts, Unsure otherwise (never False — the false negative rate is 0,
// and the union bound keeps false positives ≤ α₁).
func Coupled(test TestFunc, op Op, alpha1, alpha2 float64) (Result, error) {
	if err := checkAlpha(alpha1); err != nil {
		return Unsure, err
	}
	if err := checkAlpha(alpha2); err != nil {
		return Unsure, err
	}
	if op == NotEqual { // lines 3–7, 19
		r1, err := test(Less, alpha1/2)
		if err != nil {
			return Unsure, err
		}
		if r1 {
			return True, nil
		}
		r2, err := test(Greater, alpha1/2)
		if err != nil {
			return Unsure, err
		}
		if r2 {
			return True, nil
		}
		return Unsure, nil
	}
	inv, err := op.Inverse()
	if err != nil {
		return Unsure, err
	}
	r1, err := test(op, alpha1) // line 13: run T₁
	if err != nil {
		return Unsure, err
	}
	if r1 {
		return True, nil
	}
	r2, err := test(inv, alpha2) // line 17: run T₂
	if err != nil {
		return Unsure, err
	}
	if r2 {
		return False, nil
	}
	return Unsure, nil
}

// CoupledMTest runs mTest(X, op, c, α₁, α₂) with coupled tests.
func CoupledMTest(x Stats, op Op, c, alpha1, alpha2 float64) (Result, error) {
	return Coupled(func(o Op, a float64) (bool, error) {
		return MTest(x, o, c, a)
	}, op, alpha1, alpha2)
}

// CoupledMDTest runs mdTest(X, Y, op, c, α₁, α₂) with coupled tests.
func CoupledMDTest(x, y Stats, op Op, c, alpha1, alpha2 float64) (Result, error) {
	return Coupled(func(o Op, a float64) (bool, error) {
		return MDTest(x, y, o, c, a)
	}, op, alpha1, alpha2)
}

// CoupledPTest runs pTest(pred, τ, α₁, α₂) with coupled tests, where phat is
// the observed proportion of the n observations satisfying pred.
func CoupledPTest(phat float64, n int, op Op, tau, alpha1, alpha2 float64) (Result, error) {
	return Coupled(func(o Op, a float64) (bool, error) {
		return PTest(phat, n, o, tau, a)
	}, op, alpha1, alpha2)
}

// MTestPower returns the (approximate, normal-theory) power function γ(μ)
// of the one-sided mTest(X, >, c, α) when the true mean is mu and the true
// standard deviation sigma: the probability the test accepts H1
// ("Pr[return TRUE | E(X) > c]", §IV-C). Used to sanity-check the
// experimental power curves of Fig 5(g).
func MTestPower(mu, sigma, c float64, n int, alpha float64) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("hypothesis: power needs n ≥ 2, have %d", n)
	}
	if sigma <= 0 {
		return 0, errors.New("hypothesis: power needs σ > 0")
	}
	if err := checkAlpha(alpha); err != nil {
		return 0, err
	}
	crit, err := stat.MeanCritical(alpha, n)
	if err != nil {
		return 0, err
	}
	// Reject when (x̄−c)/(σ/√n) > crit; x̄ ~ N(μ, σ²/n).
	shift := (mu - c) / (sigma / math.Sqrt(float64(n)))
	return 1 - stat.NormCDF(crit-shift), nil
}

// MDTestPower returns the (approximate, normal-theory) power of the
// one-sided mdTest(X, Y, >, c, α) when the true parameters are
// (mux, sigmax, nx) and (muy, sigmay, ny): the probability the Welch test
// accepts H1: E(X) − E(Y) > c. The critical value uses the
// Welch–Satterthwaite degrees of freedom evaluated at the true variances —
// the same approximation MDTest itself makes with sample variances.
func MDTestPower(mux, sigmax float64, nx int, muy, sigmay float64, ny int, c, alpha float64) (float64, error) {
	if nx < 2 || ny < 2 {
		return 0, fmt.Errorf("hypothesis: power needs n ≥ 2, have %d and %d", nx, ny)
	}
	if sigmax <= 0 || sigmay <= 0 {
		return 0, errors.New("hypothesis: power needs σ > 0")
	}
	if err := checkAlpha(alpha); err != nil {
		return 0, err
	}
	vx := sigmax * sigmax / float64(nx)
	vy := sigmay * sigmay / float64(ny)
	se := math.Sqrt(vx + vy)
	df := (vx + vy) * (vx + vy) /
		(vx*vx/float64(nx-1) + vy*vy/float64(ny-1))
	n := int(math.Max(2, math.Round(df+1))) // mirror MDTest's df handling
	crit, err := stat.MeanCritical(alpha, n)
	if err != nil {
		return 0, err
	}
	shift := (mux - muy - c) / se
	return 1 - stat.NormCDF(crit-shift), nil
}

// PTestPower returns the (approximate, normal-theory) power of the
// one-sided pTest(pred, >, τ, α) when the true proportion is p: the test
// rejects when p̂ > τ + z_α·sqrt(τ(1−τ)/n), and p̂ ≈ N(p, p(1−p)/n).
func PTestPower(p float64, n int, tau, alpha float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("hypothesis: power needs n ≥ 1, have %d", n)
	}
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("hypothesis: true proportion %v outside (0,1)", p)
	}
	if tau <= 0 || tau >= 1 || math.IsNaN(tau) {
		return 0, fmt.Errorf("hypothesis: threshold τ=%v outside (0,1)", tau)
	}
	if err := checkAlpha(alpha); err != nil {
		return 0, err
	}
	seH0 := math.Sqrt(tau * (1 - tau) / float64(n))
	seTrue := math.Sqrt(p * (1 - p) / float64(n))
	crit := tau + stat.ZUpper(alpha)*seH0
	return 1 - stat.NormCDF((crit-p)/seTrue), nil
}
