package core

import (
	"fmt"
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

// benchMultiQueryEngine binds nq copies of the same AVG over a count window
// of the given rows and prefills the window so every subsequent push emits.
func benchMultiQueryEngine(b testing.TB, nq, window int) *Engine {
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
		q, err := e.Compile(fmt.Sprintf("SELECT AVG(val) AS a FROM bench WINDOW %d ROWS", window))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Bind(benchQueryID(i), q); err != nil {
			b.Fatal(err)
		}
	}
	// Prefill in chunks; the window is not yet full, so this is the cheap
	// phase.
	rows := make([]IngestRow, min(window, 4096))
	for filled := 0; filled < window; filled += len(rows) {
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

func benchRow(b testing.TB, i int) IngestRow {
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
	benchSteadyPush(b, benchMultiQueryEngine(b, planBenchQueries, planBenchWindow))
}

// BenchmarkPlannerSingleQuery: the one-query floor the shared fleet is
// measured against.
func BenchmarkPlannerSingleQuery(b *testing.B) {
	benchSteadyPush(b, benchMultiQueryEngine(b, 1, planBenchWindow))
}

// Fan-out shape of the standing benchmark's fanout-shared workload: 128
// identical AVG queries over a 1024-row window, batches of 4 Normal rows.
const (
	fanoutQueries = 128
	fanoutWindow  = 1024
	fanoutBatch   = 4
)

// fanoutRows returns the batch a steady-state fan-out ingest sends.
func fanoutRows(b testing.TB) []IngestRow {
	rows := make([]IngestRow, fanoutBatch)
	for i := range rows {
		rows[i] = benchRow(b, fanoutWindow+i)
	}
	return rows
}

// BenchmarkIngestFanout: one ingest batch through a 128-member plan group.
// ns/op and allocs/op are per batch of 4 tuples.
func BenchmarkIngestFanout(b *testing.B) {
	e := benchMultiQueryEngine(b, fanoutQueries, fanoutWindow)
	rows := fanoutRows(b)
	b.ReportAllocs()
	for b.Loop() {
		out, err := e.IngestBatch("bench", rows, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != fanoutQueries || len(out[0].Results) != fanoutBatch {
			b.Fatalf("%d query results, %d results for the first", len(out), len(out[0].Results))
		}
	}
}

// Shape of the standing benchmark's scan-large workload: one analytical AVG
// over a 32768-row window, batches of 8 Normal rows.
const (
	scanLargeWindow = 32768
	scanLargeBatch  = 8
)

// BenchmarkIngestScanLarge: one ingest batch into a full 32768-row window,
// whose closed-form scans dominate. ns/op is per batch of 8 tuples.
func BenchmarkIngestScanLarge(b *testing.B) {
	e := benchMultiQueryEngine(b, 1, scanLargeWindow)
	rows := make([]IngestRow, scanLargeBatch)
	for i := range rows {
		rows[i] = benchRow(b, scanLargeWindow+i)
	}
	b.ReportAllocs()
	for b.Loop() {
		out, err := e.IngestBatch("bench", rows, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(out[0].Results) != scanLargeBatch {
			b.Fatalf("%d results, want %d", len(out[0].Results), scanLargeBatch)
		}
	}
}
