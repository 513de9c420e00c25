package metrics

import (
	"testing"
	"time"
)

// The registry microbenchmarks quantify the per-event cost the
// instrumentation adds to the engine's hot paths.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DefBuckets)
	t0 := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(t0)
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		r.Counter("c"+string(rune('a'+i))+"_total", "").Inc()
	}
	r.Histogram("h_seconds", "", DefBuckets).Observe(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
