package dist

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stat"
)

// Distribution is a univariate probability distribution over the reals.
// It is the value type of probabilistic attributes in the uncertain stream
// database: a field of a tuple is, in general, a Distribution (a
// deterministic field is the degenerate Point distribution).
type Distribution interface {
	// Mean returns the expectation E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Quantile returns inf{x : CDF(x) ≥ p} for p in (0, 1).
	Quantile(p float64) float64
	// Sample draws one variate using r.
	Sample(r *Rand) float64
	// String returns a short human-readable description, e.g.
	// "Normal(μ=1, σ²=1)".
	String() string
}

// ErrInvalidParam reports an invalid distribution parameter.
var ErrInvalidParam = errors.New("dist: invalid parameter")

// SampleN draws n variates from d into a new slice.
func SampleN(d Distribution, n int, r *Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// checkProbPanic converts a bad quantile argument into a panic with a clear
// message; Quantile has no error return because a p outside (0,1) is always
// a programming error, never a data error.
func checkProbPanic(p float64) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		panic(fmt.Sprintf("dist: Quantile requires 0 < p < 1, got %v", p))
	}
}

// --- Normal ---

// Normal is the Gaussian distribution with mean Mu and variance Sigma2.
type Normal struct {
	Mu     float64
	Sigma2 float64
}

// NewNormal returns a Normal distribution, validating Sigma2 > 0.
func NewNormal(mu, sigma2 float64) (Normal, error) {
	if sigma2 <= 0 || math.IsNaN(mu) || math.IsNaN(sigma2) {
		return Normal{}, fmt.Errorf("%w: Normal variance %v", ErrInvalidParam, sigma2)
	}
	return Normal{Mu: mu, Sigma2: sigma2}, nil
}

func (d Normal) Mean() float64     { return d.Mu }
func (d Normal) Variance() float64 { return d.Sigma2 }

func (d Normal) CDF(x float64) float64 {
	return stat.NormCDF((x - d.Mu) / math.Sqrt(d.Sigma2))
}

func (d Normal) Quantile(p float64) float64 {
	checkProbPanic(p)
	return d.Mu + math.Sqrt(d.Sigma2)*stat.NormQuantile(p)
}

func (d Normal) Sample(r *Rand) float64 {
	return d.Mu + math.Sqrt(d.Sigma2)*r.NormFloat64()
}

func (d Normal) String() string {
	return fmt.Sprintf("Normal(μ=%g, σ²=%g)", d.Mu, d.Sigma2)
}

// --- Exponential ---

// Exponential is the exponential distribution with rate Lambda
// (mean 1/Lambda).
type Exponential struct {
	Lambda float64
}

// NewExponential returns an Exponential distribution, validating Lambda > 0.
func NewExponential(lambda float64) (Exponential, error) {
	if lambda <= 0 || math.IsNaN(lambda) {
		return Exponential{}, fmt.Errorf("%w: Exponential rate %v", ErrInvalidParam, lambda)
	}
	return Exponential{Lambda: lambda}, nil
}

func (d Exponential) Mean() float64     { return 1 / d.Lambda }
func (d Exponential) Variance() float64 { return 1 / (d.Lambda * d.Lambda) }

func (d Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-d.Lambda * x)
}

func (d Exponential) Quantile(p float64) float64 {
	checkProbPanic(p)
	return -math.Log1p(-p) / d.Lambda
}

func (d Exponential) Sample(r *Rand) float64 { return r.ExpFloat64() / d.Lambda }

func (d Exponential) String() string {
	return fmt.Sprintf("Exponential(λ=%g)", d.Lambda)
}

// --- Gamma ---

// Gamma is the gamma distribution with shape K and scale Theta
// (mean K·Theta, variance K·Theta²); the paper's synthetic experiments use
// Gamma(k=2, θ=2).
type Gamma struct {
	K     float64 // shape
	Theta float64 // scale
}

// NewGamma returns a Gamma distribution, validating K > 0 and Theta > 0.
func NewGamma(k, theta float64) (Gamma, error) {
	if k <= 0 || theta <= 0 || math.IsNaN(k) || math.IsNaN(theta) {
		return Gamma{}, fmt.Errorf("%w: Gamma(k=%v, θ=%v)", ErrInvalidParam, k, theta)
	}
	return Gamma{K: k, Theta: theta}, nil
}

func (d Gamma) Mean() float64     { return d.K * d.Theta }
func (d Gamma) Variance() float64 { return d.K * d.Theta * d.Theta }

func (d Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	p, err := stat.GammaP(d.K, x/d.Theta)
	if err != nil {
		return math.NaN()
	}
	return p
}

func (d Gamma) Quantile(p float64) float64 {
	checkProbPanic(p)
	return invertCDF(d.CDF, p, 0, d.Mean()+20*math.Sqrt(d.Variance()), 0)
}

// Sample uses the Marsaglia–Tsang method, with Johnk-style boosting for
// shape < 1.
func (d Gamma) Sample(r *Rand) float64 {
	k := d.K
	boost := 1.0
	if k < 1 {
		// X ~ Gamma(k) = Gamma(k+1) · U^{1/k}.
		boost = math.Pow(r.Float64Open(), 1/k)
		k++
	}
	dd := k - 1.0/3.0
	c := 1 / math.Sqrt(9*dd)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return dd * v * boost * d.Theta
		}
		if math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return dd * v * boost * d.Theta
		}
	}
}

func (d Gamma) String() string {
	return fmt.Sprintf("Gamma(k=%g, θ=%g)", d.K, d.Theta)
}

// --- Uniform ---

// Uniform is the continuous uniform distribution on [A, B].
type Uniform struct {
	A, B float64
}

// NewUniform returns a Uniform distribution, validating A < B.
func NewUniform(a, b float64) (Uniform, error) {
	if !(a < b) || math.IsNaN(a) || math.IsNaN(b) {
		return Uniform{}, fmt.Errorf("%w: Uniform[%v, %v]", ErrInvalidParam, a, b)
	}
	return Uniform{A: a, B: b}, nil
}

func (d Uniform) Mean() float64     { return (d.A + d.B) / 2 }
func (d Uniform) Variance() float64 { w := d.B - d.A; return w * w / 12 }

func (d Uniform) CDF(x float64) float64 {
	switch {
	case x <= d.A:
		return 0
	case x >= d.B:
		return 1
	default:
		return (x - d.A) / (d.B - d.A)
	}
}

func (d Uniform) Quantile(p float64) float64 {
	checkProbPanic(p)
	return d.A + p*(d.B-d.A)
}

func (d Uniform) Sample(r *Rand) float64 { return d.A + r.Float64()*(d.B-d.A) }

func (d Uniform) String() string { return fmt.Sprintf("Uniform[%g, %g]", d.A, d.B) }

// --- Weibull ---

// Weibull is the Weibull distribution with scale Lambda and shape K; the
// paper's synthetic experiments use Weibull(λ=1, k=1), which coincides with
// Exp(1).
type Weibull struct {
	Lambda float64 // scale
	K      float64 // shape
}

// NewWeibull returns a Weibull distribution, validating both parameters > 0.
func NewWeibull(lambda, k float64) (Weibull, error) {
	if lambda <= 0 || k <= 0 || math.IsNaN(lambda) || math.IsNaN(k) {
		return Weibull{}, fmt.Errorf("%w: Weibull(λ=%v, k=%v)", ErrInvalidParam, lambda, k)
	}
	return Weibull{Lambda: lambda, K: k}, nil
}

func (d Weibull) Mean() float64 {
	g, _ := math.Lgamma(1 + 1/d.K)
	return d.Lambda * math.Exp(g)
}

func (d Weibull) Variance() float64 {
	g1, _ := math.Lgamma(1 + 1/d.K)
	g2, _ := math.Lgamma(1 + 2/d.K)
	m := math.Exp(g1)
	return d.Lambda * d.Lambda * (math.Exp(g2) - m*m)
}

func (d Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/d.Lambda, d.K))
}

func (d Weibull) Quantile(p float64) float64 {
	checkProbPanic(p)
	return d.Lambda * math.Pow(-math.Log1p(-p), 1/d.K)
}

func (d Weibull) Sample(r *Rand) float64 {
	return d.Lambda * math.Pow(r.ExpFloat64(), 1/d.K)
}

func (d Weibull) String() string {
	return fmt.Sprintf("Weibull(λ=%g, k=%g)", d.Lambda, d.K)
}

// --- Lognormal ---

// Lognormal is the distribution of e^Z with Z ~ Normal(MuLog, Sigma2Log).
// The simulated CarTel road-delay data uses lognormal segment delays, the
// standard heavy-tailed model for travel times.
type Lognormal struct {
	MuLog     float64
	Sigma2Log float64
}

// NewLognormal returns a Lognormal distribution, validating Sigma2Log > 0.
func NewLognormal(muLog, sigma2Log float64) (Lognormal, error) {
	if sigma2Log <= 0 || math.IsNaN(muLog) || math.IsNaN(sigma2Log) {
		return Lognormal{}, fmt.Errorf("%w: Lognormal σ²=%v", ErrInvalidParam, sigma2Log)
	}
	return Lognormal{MuLog: muLog, Sigma2Log: sigma2Log}, nil
}

func (d Lognormal) Mean() float64 { return math.Exp(d.MuLog + d.Sigma2Log/2) }

func (d Lognormal) Variance() float64 {
	return math.Expm1(d.Sigma2Log) * math.Exp(2*d.MuLog+d.Sigma2Log)
}

func (d Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return stat.NormCDF((math.Log(x) - d.MuLog) / math.Sqrt(d.Sigma2Log))
}

func (d Lognormal) Quantile(p float64) float64 {
	checkProbPanic(p)
	return math.Exp(d.MuLog + math.Sqrt(d.Sigma2Log)*stat.NormQuantile(p))
}

func (d Lognormal) Sample(r *Rand) float64 {
	return math.Exp(d.MuLog + math.Sqrt(d.Sigma2Log)*r.NormFloat64())
}

func (d Lognormal) String() string {
	return fmt.Sprintf("Lognormal(μ=%g, σ²=%g)", d.MuLog, d.Sigma2Log)
}

// --- Point (degenerate) ---

// Point is the degenerate distribution concentrated at V: the representation
// of a traditional deterministic field ("a single value with probability 1",
// §II-A).
type Point struct {
	V float64
}

func (d Point) Mean() float64     { return d.V }
func (d Point) Variance() float64 { return 0 }

func (d Point) CDF(x float64) float64 {
	if x < d.V {
		return 0
	}
	return 1
}

func (d Point) Quantile(p float64) float64 { checkProbPanic(p); return d.V }
func (d Point) Sample(*Rand) float64       { return d.V }
func (d Point) String() string             { return fmt.Sprintf("Point(%g)", d.V) }

// invertCDF numerically inverts a CDF by bracketed bisection with Newton-free
// robustness; used by families without a closed-form quantile. lo must have
// CDF(lo) ≤ p; hi is grown until CDF(hi) ≥ p. floor clamps the result's lower
// bound (e.g. 0 for positive distributions).
func invertCDF(cdf func(float64) float64, p, lo, hi, floor float64) float64 {
	for i := 0; i < 200 && cdf(hi) < p; i++ {
		hi *= 2
		if hi == 0 {
			hi = 1
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(hi)) {
			break
		}
	}
	x := (lo + hi) / 2
	if x < floor {
		x = floor
	}
	return x
}
