package stream

// scan8Go is the portable closed-form kernel: scan4 over lanes 0–3, and
// again over lanes 4–7 only when more than four lanes are in use. It gives
// the bits scan8AVX2 gives in every lane it sums.
func scan8Go(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int, lanes int) uint {
	least = scan4((*[4]float64)(mu[:4]), (*[4]float64)(sigma2[:4]), least, wt, mean, varr, ns)
	if lanes > 4 {
		least = scan4((*[4]float64)(mu[4:]), (*[4]float64)(sigma2[4:]), least, wt, mean, varr, ns)
	}
	return least
}

// scan4 adds wt·mean[i] and wt²·varr[i] to all four lanes, i rising, and
// lowers least to the least ns[i]-1 as unsigned. Eight independent sums
// run at add throughput, not one add's latency; a loop of its own for the
// minimum would cost as much as the sums.
func scan4(mu, sigma2 *[4]float64, least uint, wt float64, mean, varr []float64, ns []int) uint {
	varr, ns = varr[:len(mean)], ns[:len(mean)] // no bounds checks below
	m0, m1, m2, m3 := mu[0], mu[1], mu[2], mu[3]
	s0, s1, s2, s3 := sigma2[0], sigma2[1], sigma2[2], sigma2[3]
	for i, x := range mean {
		m0 += wt * x
		m1 += wt * x
		m2 += wt * x
		m3 += wt * x
		s0 += wt * wt * varr[i]
		s1 += wt * wt * varr[i]
		s2 += wt * wt * varr[i]
		s3 += wt * wt * varr[i]
		least = min(least, uint(ns[i])-1)
	}
	*mu = [4]float64{m0, m1, m2, m3}
	*sigma2 = [4]float64{s0, s1, s2, s3}
	return least
}
