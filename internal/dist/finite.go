package dist

import (
	"fmt"
	"math"
	"math/bits"
)

// extremeUniforms are the first uniforms CheckFiniteDraws steers a draw to:
// both ends of Float64's range, the smallest Float64Open can return, and the
// middle.
var extremeUniforms = [...]float64{0, 0x1p-53, 0.5, 1 - 0x1p-53}

// CheckFiniteDraws returns an error when d can draw a value that is infinite
// or NaN. A Monte Carlo query skips such a draw, so a field that makes them
// leaves too few finite values and fails every emission while it is in the
// window. Finite parameters are not enough: a uniform wider than the largest
// float64, an exponential with a subnormal rate or a lognormal with a large
// μ overflow on every draw. The constructors accept such a distribution, so
// that one already in a journal or a checkpoint still restores; live ingest
// refuses a new one before journaling it.
//
// The rule is one for every family: d draws once from a generator steered so
// that the first uniform it reads is each of extremeUniforms, and a draw that
// is not finite is refused. Parameters that overflow any draw overflow one of
// those. Three cases need no draw:
//   - a mixture is checked component by component, and a histogram bucket by
//     bucket, because the first uniform picks the component or bucket and the
//     extremes reach only the first and the last; a histogram's draw lies in
//     its bucket, so a bucket draws finite values exactly when its width is
//     finite;
//   - a Point draws its value, which ingest already holds finite;
//   - a Normal draws μ + √σ²·Z with |Z| ≤ √(−2 ln s) ≤ 12 for the polar
//     method's s ≥ 2⁻¹⁰⁴, which stays finite for every finite μ and σ².
func CheckFiniteDraws(d Distribution) error {
	switch d := d.(type) {
	case Point, Normal:
		return nil
	case *Histogram:
		for i := 0; i+1 < len(d.Edges); i++ {
			if w := d.Edges[i+1] - d.Edges[i]; math.IsInf(w, 0) {
				return fmt.Errorf("%w: histogram bucket %d is %v wide", ErrInvalidParam, i, w)
			}
		}
		return nil
	case *Mixture:
		for _, c := range d.Components {
			if err := CheckFiniteDraws(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, u := range extremeUniforms {
		if x := d.Sample(randAt(u, 7)); math.IsInf(x, 0) || math.IsNaN(x) {
			return fmt.Errorf("%w: %v draws %v at uniform %v", ErrInvalidParam, d, x, u)
		}
	}
	return nil
}

// randAt returns a generator whose next Float64 is u rounded down to the
// generator's grid of multiples of 2⁻⁵³. A xoshiro256** output depends on the
// state's second word alone, through an invertible map; fill sets the rest.
func randAt(u float64, fill uint64) *Rand {
	inverse := func(x uint64) uint64 { // of an odd x, mod 2⁶⁴, by Newton's iteration
		y := x
		for i := 0; i < 5; i++ {
			y *= 2 - x*y
		}
		return y
	}
	out := uint64(u*(1<<53)) << 11
	s1 := bits.RotateLeft64(out*inverse(9), -7) * inverse(5)
	return &Rand{g: gen{s0: fill | 1, s1: s1, s2: fill * 3, s3: fill ^ 0x9e3779b97f4a7c15}}
}
