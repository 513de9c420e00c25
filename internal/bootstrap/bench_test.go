package bootstrap

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

// BenchmarkAccuracyInfo times BOOTSTRAP-ACCURACY-INFO at the kernel-mc
// workload's shape: the 1000 Monte Carlo values of one emission, a d.f. of
// 20 (so 50 resamples) and bin heights over a 5-bucket histogram.
func BenchmarkAccuracyInfo(b *testing.B) {
	h, err := dist.HistogramFromCounts([]float64{37.5, 47.5, 57.5, 67.5, 77.5, 87.5}, []int{3, 12, 1, 7, 9})
	if err != nil {
		b.Fatal(err)
	}
	v := dist.SampleN(h, 1000, dist.NewRand(1))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := AccuracyInfo(v, 20, 0.9, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFromDistribution times §III-B's second category, drawing r = 20
// resamples of n values from a Normal result distribution and bootstrapping
// them, at a d.f. of 205 (where the removed worker pool first dispatched),
// 4096 and 65536 (core.MaxSampleSize).
func BenchmarkFromDistribution(b *testing.B) {
	d, err := dist.NewNormal(62, 120)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{205, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := dist.NewRand(1)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := FromDistribution(d, n, 20, 0.9, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
