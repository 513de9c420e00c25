package stream

import (
	"math"
	"math/rand"
	"testing"
)

// scanFunc is scan8's signature, which every kernel under test has.
type scanFunc func(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int, lanes int) uint

// scanKernel is a closed-form kernel under test.
type scanKernel struct {
	name string
	scan scanFunc
	skip string // why this host cannot run it; "" when it can
}

// scanKernels lists the portable kernel and each kernel this GOARCH has.
func scanKernels() []scanKernel {
	return append([]scanKernel{{name: "go", scan: scan8Go}}, archScanKernels()...)
}

// scanOneChain is the reference every kernel lane is held to: lane j's
// partial sums, then one oldest-first chain of adds per moment and lane.
func scanOneChain(mu, sigma2 *[AheadWidth]float64, least uint, wt float64, mean, varr []float64, ns []int, lanes int) uint {
	for j := 0; j < lanes; j++ {
		for i := range mean {
			mu[j] += wt * mean[i]
			sigma2[j] += wt * wt * varr[i]
		}
	}
	for _, n := range ns[:len(mean)] {
		least = min(least, uint(n)-1)
	}
	return least
}

// scanCase is one kernel input: the lanes in use, the partial sums each
// lane starts from, the minimum so far and a segment of slots.
type scanCase struct {
	lanes      int
	mu, sigma2 [AheadWidth]float64
	least      uint
	wt         float64
	mean, varr []float64
	ns         []int
}

// scanResult is what one kernel left for one case.
type scanResult struct {
	mu, sigma2 [AheadWidth]float64
	least      uint
}

// scanCases draws 10⁴ segments of 0–67 slots and one of 32768 from means,
// variances and sample sizes that hold −0, subnormals, ±1e300, and n ≤ 0,
// 1, MaxInt and MinInt, beside ordinary values.
func scanCases() []scanCase {
	means := []float64{math.Copysign(0, -1), 0, 5e-324, -2.2e-308, 1e300, -1e300, 1.5, -7.25, 61.3, 0.1}
	vars := []float64{0, 4.9e-324, 1e-300, 2.5, 9, 1e300, 0.3}
	ns := []int{0, -1, -3, 1, 2, 7, 30, math.MaxInt, math.MinInt}
	wts := []float64{1, 1.0 / 3, 1.0 / 32768, -0.37, math.Copysign(0, -1), 1e-160}
	rng := rand.New(rand.NewSource(8))
	pick := func(xs []float64) float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64() * 100
		}
		return xs[rng.Intn(len(xs))]
	}
	draw := func(slots int) scanCase {
		c := scanCase{lanes: 1 + rng.Intn(AheadWidth), least: ^uint(0), wt: wts[rng.Intn(len(wts))]}
		if rng.Intn(3) == 0 {
			c.least = uint(ns[rng.Intn(len(ns))]) - 1
		}
		for j := range c.mu {
			c.mu[j], c.sigma2[j] = pick(means), pick(vars)
		}
		c.mean, c.varr, c.ns = make([]float64, slots), make([]float64, slots), make([]int, slots)
		for i := 0; i < slots; i++ {
			c.mean[i], c.varr[i], c.ns[i] = pick(means), pick(vars), ns[rng.Intn(len(ns))]
		}
		return c
	}
	cases := make([]scanCase, 0, 10_001)
	for len(cases) < 10_000 {
		cases = append(cases, draw(rng.Intn(68)))
	}
	return append(cases, draw(32768))
}

// TestScanKernelsAgree runs every kernel over every case, collects every
// result, and only then holds each kernel's lanes in use and minimum to the
// one-chain reference's bits: a kernel that wrote through its inputs or
// shared an accumulator across calls would show in a later case.
func TestScanKernelsAgree(t *testing.T) {
	cases := scanCases()
	run := func(scan scanFunc) []scanResult {
		out := make([]scanResult, len(cases))
		for i := range cases {
			c := &cases[i]
			out[i].mu, out[i].sigma2 = c.mu, c.sigma2
			out[i].least = scan(&out[i].mu, &out[i].sigma2, c.least, c.wt, c.mean, c.varr, c.ns, c.lanes)
		}
		return out
	}
	want := run(scanOneChain)
	for _, k := range scanKernels() {
		t.Run(k.name, func(t *testing.T) {
			if k.skip != "" {
				t.Skip(k.skip)
			}
			got := run(k.scan)
			bad := 0
			for i, c := range cases {
				g, w := got[i], want[i]
				for j := 0; j < c.lanes; j++ {
					if !sameBits(g.mu[j], w.mu[j]) || !sameBits(g.sigma2[j], w.sigma2[j]) {
						bad++
						t.Errorf("case %d (%d slots, wt %v), lane %d: (%v, %v), one chain (%v, %v)",
							i, len(c.mean), c.wt, j, g.mu[j], g.sigma2[j], w.mu[j], w.sigma2[j])
					}
				}
				if g.least != w.least {
					bad++
					t.Errorf("case %d (%d slots): least %d, one chain %d", i, len(c.mean), g.least, w.least)
				}
				if bad > 10 {
					t.Fatal("too many mismatches")
				}
			}
		})
	}
}
