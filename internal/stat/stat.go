// Package stat implements the statistical special functions the rest of the
// system is built on: the regularized incomplete gamma and beta functions,
// and the density, cumulative distribution, and quantile (inverse CDF)
// functions of the standard normal, Student's t, and chi-square
// distributions.
//
// The paper's analytical accuracy methods (Lemmas 1 and 2) need upper
// percentiles of exactly these three distributions:
//
//   - z_{(1-c)/2}    standard normal (bin-height and large-n mean intervals)
//   - t_{(1-c)/2}    Student's t with n-1 d.o.f. (small-n mean intervals)
//   - chi²_{(1±c)/2} chi-square with n-1 d.o.f. (variance intervals)
//
// Everything here is implemented from scratch on top of math.Erf/math.Lgamma
// using standard numerical methods (Wichura AS 241 for the normal quantile,
// Lentz continued fractions for the incomplete gamma/beta), accurate to
// roughly 1e-12 in the central range, which is far beyond what confidence
// intervals on n ≤ 10⁶ samples can resolve.
package stat

import (
	"errors"
	"math"
)

// ErrDomain is returned (or wrapped) by functions asked to evaluate outside
// their mathematical domain, e.g. a probability not in (0, 1).
var ErrDomain = errors.New("stat: argument outside domain")

const (
	// maxIter bounds the continued-fraction and series loops. The
	// fractions converge in a few dozen iterations for all arguments the
	// database produces; 500 leaves a wide margin.
	maxIter = 500
	// eps is the relative convergence target for the iterative methods.
	eps = 1e-14
	// tiny guards Lentz's algorithm against division by zero.
	tiny = 1e-300
)

// --- Standard normal ---

// NormCDF returns P(Z ≤ x) for a standard normal Z.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormQuantile returns the p-quantile of the standard normal distribution,
// i.e. the x with P(Z ≤ x) = p. It panics if p is outside (0, 1); callers
// that accept user input must validate first (see CheckProb).
//
// The implementation is Wichura's algorithm AS 241 (PPND16), with one
// Halley refinement step; absolute error is below 1e-15 over (1e-300, 1-1e-16).
func NormQuantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		panic("stat: NormQuantile requires 0 < p < 1")
	}
	q := p - 0.5
	var x float64
	if math.Abs(q) <= 0.425 {
		// Central region: rational approximation in q².
		r := 0.180625 - q*q
		x = q * (((((((2.5090809287301226727e3*r+3.3430575583588128105e4)*r+
			6.7265770927008700853e4)*r+4.5921953931549871457e4)*r+
			1.3731693765509461125e4)*r+1.9715909503065514427e3)*r+
			1.3314166789178437745e2)*r + 3.3871328727963666080e0) /
			(((((((5.2264952788528545610e3*r+2.8729085735721942674e4)*r+
				3.9307895800092710610e4)*r+2.1213794301586595867e4)*r+
				5.3941960214247511077e3)*r+6.8718700749205790830e2)*r+
				4.2313330701600911252e1)*r + 1.0)
	} else {
		// Tail region: rational approximation in sqrt(-log r).
		r := p
		if q > 0 {
			r = 1 - p
		}
		r = math.Sqrt(-math.Log(r))
		if r <= 5 {
			r -= 1.6
			x = (((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
				2.41780725177450611770e-1)*r+1.27045825245236838258e0)*r+
				3.64784832476320460504e0)*r+5.76949722146069140550e0)*r+
				4.63033784615654529590e0)*r + 1.42343711074968357734e0) /
				(((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
					1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
					6.89767334985100004550e-1)*r+1.67638483018380384940e0)*r+
					2.05319162663775882187e0)*r + 1.0)
		} else {
			r -= 5
			x = (((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
				1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
				2.96560571828504891230e-1)*r+1.78482653991729133580e0)*r+
				5.46378491116411436990e0)*r + 6.65790464350110377720e0) /
				(((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
					1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
					1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
					5.99832206555887937690e-1)*r + 1.0)
		}
		if q < 0 {
			x = -x
		}
	}
	// One Halley step against the exact CDF tightens the tails.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// ZUpper returns z_a, the upper-a percentile of the standard normal
// distribution: the point with a probability mass above it. Lemma 1 and
// Lemma 2 (eq. 1, 4) use z_{(1-c)/2} for confidence level c.
func ZUpper(a float64) float64 {
	if err := CheckProb(a); err != nil {
		panic(err)
	}
	return NormQuantile(1 - a)
}

// --- Incomplete gamma ---

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a), for a > 0, x ≥ 0.
func GammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		return gammaPSeries(a, x), nil
	}
	return 1 - gammaQContinuedFraction(a, x), nil
}

// gammaPSeries evaluates P(a, x) by its power series; converges quickly for
// x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a, x) by the Lentz continued fraction;
// converges quickly for x ≥ a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// --- Incomplete beta ---

// BetaInc returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1].
func BetaInc(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 || x < 0 || x > 1 ||
		math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	switch x {
	case 0:
		return 0, nil
	case 1:
		return 1, nil
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	// The continued fraction converges fast for x < (a+1)/(a+b+2); use the
	// symmetry I_x(a,b) = 1 − I_{1−x}(b,a) otherwise.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a, nil
	}
	return 1 - front*betaCF(b, a, 1-x)/b, nil
}

// betaCF is the Lentz continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// --- Student's t ---

// TPDF returns the density of Student's t distribution with df degrees of
// freedom at x.
func TPDF(x, df float64) float64 {
	lg1, _ := math.Lgamma((df + 1) / 2)
	lg2, _ := math.Lgamma(df / 2)
	return math.Exp(lg1-lg2) / math.Sqrt(df*math.Pi) *
		math.Pow(1+x*x/df, -(df+1)/2)
}

// TCDF returns P(T ≤ x) for Student's t with df degrees of freedom (df > 0).
func TCDF(x, df float64) (float64, error) {
	if df <= 0 || math.IsNaN(x) || math.IsNaN(df) {
		return 0, ErrDomain
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if math.IsInf(x, -1) {
		return 0, nil
	}
	ib, err := BetaInc(df/2, 0.5, df/(df+x*x))
	if err != nil {
		return 0, err
	}
	if x > 0 {
		return 1 - ib/2, nil
	}
	return ib / 2, nil
}

// TQuantile returns the p-quantile of Student's t with df degrees of freedom.
// It uses the normal quantile as a starting point and refines with Newton
// iterations on the exact CDF, falling back to bisection when Newton leaves
// the bracket.
func TQuantile(p, df float64) (float64, error) {
	if df <= 0 || math.IsNaN(p) {
		return 0, ErrDomain
	}
	if !(p > 0 && p < 1) {
		if p == 0 {
			return math.Inf(-1), nil
		}
		if p == 1 {
			return math.Inf(1), nil
		}
		return 0, ErrDomain
	}
	if p == 0.5 {
		return 0, nil
	}
	// Symmetry: solve in the upper half only.
	if p < 0.5 {
		q, err := TQuantile(1-p, df)
		return -q, err
	}
	// Initial guess: Cornish-Fisher style expansion from the normal quantile.
	z := NormQuantile(p)
	g1 := (z*z*z + z) / 4
	g2 := (5*math.Pow(z, 5) + 16*z*z*z + 3*z) / 96
	x := z + g1/df + g2/(df*df)
	if x < 0 {
		x = z
	}
	// Bracket [lo, hi] with CDF(lo) ≤ p ≤ CDF(hi).
	lo, hi := 0.0, math.Max(2*x, 2.0)
	for i := 0; i < 200; i++ {
		c, err := TCDF(hi, df)
		if err != nil {
			return 0, err
		}
		if c >= p {
			break
		}
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		c, err := TCDF(x, df)
		if err != nil {
			return 0, err
		}
		diff := c - p
		if math.Abs(diff) < 1e-14 {
			return x, nil
		}
		if diff > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := TPDF(x, df)
		var next float64
		if pdf > 0 {
			next = x - diff/pdf
		}
		if pdf == 0 || next <= lo || next >= hi {
			next = (lo + hi) / 2 // Newton escaped the bracket: bisect.
		}
		if math.Abs(next-x) < 1e-13*(1+math.Abs(x)) {
			return next, nil
		}
		x = next
	}
	return x, nil
}

// TUpper returns t_a with df degrees of freedom: the upper-a percentile used
// by Lemma 2 eq. (3).
func TUpper(a, df float64) (float64, error) {
	if err := CheckProb(a); err != nil {
		return 0, err
	}
	return TQuantile(1-a, df)
}

// --- Chi-square ---

// ChiSquarePDF returns the density of the chi-square distribution with df
// degrees of freedom at x.
func ChiSquarePDF(x, df float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(df / 2)
	return math.Exp((df/2-1)*math.Log(x) - x/2 - df/2*math.Ln2 - lg)
}

// ChiSquareCDF returns P(X ≤ x) for a chi-square X with df degrees of freedom.
func ChiSquareCDF(x, df float64) (float64, error) {
	if df <= 0 || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	return GammaP(df/2, x/2)
}

// ChiSquareQuantile returns the p-quantile of the chi-square distribution
// with df degrees of freedom: Wilson–Hilferty starting point, then Newton
// with bisection fallback on the exact CDF.
func ChiSquareQuantile(p, df float64) (float64, error) {
	if df <= 0 || math.IsNaN(p) {
		return 0, ErrDomain
	}
	if !(p >= 0 && p <= 1) {
		return 0, ErrDomain
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		return math.Inf(1), nil
	}
	// Wilson–Hilferty approximation.
	z := NormQuantile(p)
	t := 2.0 / (9 * df)
	x := df * math.Pow(1-t+z*math.Sqrt(t), 3)
	if x <= 0 || math.IsNaN(x) {
		x = df // harmless starting point near the mean
	}
	lo, hi := 0.0, math.Max(4*x, 4*df)
	for i := 0; i < 200; i++ {
		c, err := ChiSquareCDF(hi, df)
		if err != nil {
			return 0, err
		}
		if c >= p {
			break
		}
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		c, err := ChiSquareCDF(x, df)
		if err != nil {
			return 0, err
		}
		diff := c - p
		if math.Abs(diff) < 1e-14 {
			return x, nil
		}
		if diff > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := ChiSquarePDF(x, df)
		var next float64
		if pdf > 0 {
			next = x - diff/pdf
		}
		if pdf == 0 || next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) < 1e-13*(1+math.Abs(x)) {
			return next, nil
		}
		x = next
	}
	return x, nil
}

// ChiSquareUpper returns the chi-square value with df degrees of freedom that
// locates probability mass a to its right, i.e. χ²_a in Lemma 2 eq. (5).
func ChiSquareUpper(a, df float64) (float64, error) {
	if err := CheckProb(a); err != nil {
		return 0, err
	}
	return ChiSquareQuantile(1-a, df)
}

// CheckProb reports whether p is a valid open-interval probability (0, 1).
func CheckProb(p float64) error {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return ErrDomain
	}
	return nil
}

// CheckLevel reports whether c is a valid confidence level in (0, 1).
func CheckLevel(c float64) error {
	return CheckProb(c)
}
