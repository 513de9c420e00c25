//go:build !amd64

package stream

// scan8 is the closed form's one loop: it adds wt·mean[i] and wt²·varr[i]
// to lanes 0 to lanes-1 of mu and sigma2, i rising, and lowers least to
// the least ns[i]-1 as unsigned. Off amd64 it is the portable kernel.
func scan8(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int, lanes int) uint {
	return scan8Go(mu, sigma2, least, wt, mean, varr, ns, lanes)
}
