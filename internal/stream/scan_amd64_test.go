package stream

// archScanKernels lists the AVX2 kernel, with the reason a host without
// AVX2 skips it.
func archScanKernels() []scanKernel {
	k := scanKernel{name: "avx2", scan: func(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int, _ int) uint {
		return scan8AVX2(mu, sigma2, least, wt, mean, varr[:len(mean)], ns[:len(mean)])
	}}
	if !haveAVX2 {
		k.skip = "this CPU or OS lacks AVX2"
	}
	return []scanKernel{k}
}
