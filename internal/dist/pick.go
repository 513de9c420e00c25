package dist

// pickLinearMax is the longest table pick counts entry by entry; longer
// ones are binary-searched. Neither branches on u. Counting's compares are
// independent of each other, the search is a chain of dependent loads. On
// a 2-vCPU Xeon the two tie up to about six entries (3–8 ns) and the search
// wins from eight (7 against 10 ns). Over the four entries of a five-bucket
// histogram, counting also slowed less than searching while the core's
// other hardware thread was busy (Monte Carlo AVG over 32 such histograms:
// 1.29× against 1.35×).
const pickLinearMax = 4

// prefixSums returns the running sums of ps, folded left to right as
// c += p: the values a walk over ps compares a uniform draw against.
// Histogram, Discrete and Mixture build this table once, at construction,
// and never write it again, so concurrent readers may sample freely.
func prefixSums(ps []float64) []float64 {
	cum := make([]float64, len(ps))
	c := 0.0
	for i, p := range ps {
		c += p
		cum[i] = c
	}
	return cum
}

// pick returns the index of the bucket a uniform draw u in [0, 1) selects
// from probabilities ps: the first i with u < ps[0]+…+ps[i], or the last
// bucket when rounding leaves every running sum ≤ u. cum is ps's table
// from prefixSums.
//
// Probabilities are non-negative and rounding is monotone, so the running
// sums never decrease. The first i with u < cum[i] is therefore exactly the
// number of entries ≤ u, which pick counts without a branch on u: an early
// exit at a random index would mispredict on nearly every draw. Leaving the
// last entry out of the count caps it at the last bucket, which is the
// fallthrough. The result is the early-exit walk's, bit for bit.
//
// A distribution built as a struct literal has no table; pick then folds
// ps as it counts, which yields the same index.
func pick(cum, ps []float64, u float64) int {
	if len(cum) != len(ps) {
		n, c := 0, 0.0
		for _, p := range ps[:len(ps)-1] {
			c += p
			n += b2i(c <= u)
		}
		return n
	}
	t := cum[:len(cum)-1]
	if len(t) <= pickLinearMax {
		n := 0
		for _, c := range t {
			n += b2i(c <= u)
		}
		return n
	}
	// Lower bound without a branch on u: the count stays in [base, base+n]
	// and each step halves n, moving base by a mask rather than a jump.
	base := 0
	for n := len(t); n > 1; {
		half := n >> 1
		base += half & -b2i(t[base+half] <= u)
		n -= half
	}
	return base + b2i(t[base] <= u)
}

// b2i is 1 for true and 0 for false; the compiler emits it as a SETcc.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
