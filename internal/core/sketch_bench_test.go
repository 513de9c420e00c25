package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// Exact-vs-sketch backend comparison through the real engine push
// path. PushSteady measures the per-tuple cost of a full window emitting
// results (the exact backends rescan O(window) per emission; the sketch
// backend merges 16 block summaries regardless of window size, and only on
// the block-seal pushes). Absorb1M measures the bytes allocated to absorb a
// 1M-tuple window — the memory story behind the ≤64 MiB sketch bound.

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := NewEngine(Config{Seed: 7, Method: AccuracyAnalytical, Level: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := stream.NewSchema("bench",
		stream.Column{Name: "k"},
		stream.Column{Name: "val", Probabilistic: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RegisterStream(schema); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchTuple(b *testing.B, e *Engine, i int) *stream.Tuple {
	d, err := dist.NewNormal(40+float64(i%50), 9)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := e.NewTuple("bench", []randvar.Field{
		randvar.Det(float64(i)),
		{Dist: d, N: 25},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tp
}

func benchQuerySQL(backend string, window int) string {
	sql := fmt.Sprintf("SELECT COUNT(val) AS c, AVG(val) AS a, SUM(val) AS s FROM bench WINDOW %d ROWS", window)
	if backend != "" {
		sql += " BACKEND " + backend
	}
	return sql
}

// benchPushSteady prefills the window (untimed), then measures b.N pushes
// against the full, steadily emitting window.
func benchPushSteady(b *testing.B, backend string, window int) {
	e := benchEngine(b)
	q, err := e.Compile(benchQuerySQL(backend, window))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		if _, err := q.Push(benchTuple(b, e, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Push(benchTuple(b, e, window+i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchPushSteady(b *testing.B) {
	for _, w := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			benchPushSteady(b, "SKETCH", w)
		})
	}
}

func BenchmarkExactPushSteady(b *testing.B) {
	for _, w := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			benchPushSteady(b, "", w)
		})
	}
}

func BenchmarkBootstrapPushSteady(b *testing.B) {
	b.Run("window=1000", func(b *testing.B) {
		benchPushSteady(b, "BOOTSTRAP", 1_000)
	})
}

// BenchmarkWindowAbsorb1M ingests 1M tuples into a 1M-row window from
// cold. B/op is the total allocation bill (dominated by per-tuple
// construction in both backends); retained_bytes/op is the live heap the
// full window pins after a GC — the number the ≤64 MiB sketch memory bound
// is about: the exact columnar backend materializes every row, the sketch
// keeps 16 block summaries + a polylog quantile sketch. Run with a small
// -benchtime count: one op is a million pushes.
func BenchmarkWindowAbsorb1M(b *testing.B) {
	const n = 1_000_000
	for _, bk := range []struct{ name, backend string }{
		{"backend=sketch", "SKETCH"},
		{"backend=exact", ""},
	} {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			var retained float64
			for i := 0; i < b.N; i++ {
				// Baseline before the engine exists: the exact backend
				// preallocates its 1M-row columnar ring at compile time, so
				// the window bill must include engine + plan construction.
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				e := benchEngine(b)
				q, err := e.Compile(benchQuerySQL(bk.backend, n))
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if _, err := q.Push(benchTuple(b, e, j)); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&m1)
				retained += float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
				runtime.KeepAlive(q)
				runtime.KeepAlive(e)
			}
			b.ReportMetric(retained/float64(b.N), "retained_bytes/op")
		})
	}
}
