package stream

// haveAVX2 is read once, at package init: whether this CPU runs AVX2 and
// its OS saves the YMM registers.
var haveAVX2 = cpuAVX2()

// scan8 is the closed form's one loop: it adds wt·mean[i] and wt²·varr[i]
// to lanes 0 to lanes-1 of mu and sigma2, i rising, and lowers least to
// the least ns[i]-1 as unsigned. It may sum lanes past lanes-1 too.
func scan8(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int, lanes int) uint {
	if haveAVX2 {
		return scan8AVX2(mu, sigma2, least, wt, mean, varr[:len(mean)], ns[:len(mean)])
	}
	return scan8Go(mu, sigma2, least, wt, mean, varr, ns, lanes)
}

// scan8AVX2 is scan8 over all eight lanes in YMM registers: per slot one
// multiply of the broadcast mean by wt and one of the broadcast variance
// by wt², then one add into each lane, with no fused multiply-add, so
// every lane rounds as scan4's scalar adds do. varr and ns must be at
// least as long as mean. Implemented in scan_amd64.s.
//
//go:noescape
func scan8AVX2(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int) uint

// cpuAVX2 reports whether CPUID announces OSXSAVE, AVX and AVX2 and XCR0
// has the SSE and AVX state enabled. Implemented in scan_amd64.s.
func cpuAVX2() bool
