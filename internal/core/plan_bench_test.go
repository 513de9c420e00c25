package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// The multi-query planner's headline numbers. A production load is
// many continuous queries differing only in labels; with shared
// per-(stream, field, window, backend) state, 1000 identical-window
// queries should cost roughly one query's learning work per tuple (the
// window push and the closed-form moment scan run once; each extra member
// pays only an emission replay).

const (
	planBenchWindow  = 131072
	planBenchQueries = 1000
)

// benchMultiQueryEngine binds nq copies of the same windowed AVG and
// prefills the window so every subsequent push emits.
func benchMultiQueryEngine(b *testing.B, nq int) *Engine {
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
	for i := 0; i < nq; i++ {
		q, err := e.Compile("SELECT AVG(val) AS a FROM bench WINDOW 131072 ROWS")
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Bind(benchQueryID(i), q); err != nil {
			b.Fatal(err)
		}
	}
	// Prefill in chunks; the window is not yet full, so this is the cheap
	// phase.
	const chunk = 4096
	rows := make([]IngestRow, chunk)
	for filled := 0; filled < planBenchWindow; filled += chunk {
		for j := range rows {
			rows[j] = benchRow(b, filled+j)
		}
		if _, err := e.IngestBatch("bench", rows, nil); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func benchQueryID(i int) string {
	return "q" + string([]byte{byte('0' + i/100%10), byte('0' + i/10%10), byte('0' + i%10)})
}

func benchRow(b *testing.B, i int) IngestRow {
	d, err := dist.NewNormal(40+float64(i%50), 9)
	if err != nil {
		b.Fatal(err)
	}
	return IngestRow{Fields: []randvar.Field{randvar.Det(float64(i)), {Dist: d, N: 25}}, Time: int64(i)}
}

func benchSteadyPush(b *testing.B, e *Engine) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.IngestBatch("bench", []IngestRow{benchRow(b, planBenchWindow+i)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for k := range out {
			if out[k].Err != nil {
				b.Fatal(out[k].Err)
			}
		}
	}
}

// BenchmarkPlanner1kShared: 1000 identical queries, shared state. Target:
// within ~2x of BenchmarkPlannerSingleQuery per tuple.
func BenchmarkPlanner1kShared(b *testing.B) {
	benchSteadyPush(b, benchMultiQueryEngine(b, planBenchQueries))
}

// BenchmarkPlannerSingleQuery: the one-query floor the shared fleet is
// measured against.
func BenchmarkPlannerSingleQuery(b *testing.B) {
	benchSteadyPush(b, benchMultiQueryEngine(b, 1))
}
