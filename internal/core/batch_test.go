package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
)

// batchWorkload is the fleet TestBatchMatchesSingles feeds: closed-form
// count windows of every size around a chunk of eight tuples
// (stream.AheadWidth) and around half of one, AVG + SUM + COUNT on one
// column, a shared group of three, WHERE clauses that drop tuples, filters
// that draw from the query's generator (the last one on every tuple,
// between Monte Carlo MINs), MIN/MAX, GROUP BY, a time window, a sketch,
// and the analytical and bootstrap backends.
var batchWorkload = []string{
	"SELECT AVG(delay) AS a FROM traffic WINDOW 1 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 3 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 5 ROWS",
	"SELECT AVG(delay) AS a, SUM(delay) AS s, COUNT(delay) AS c FROM traffic WINDOW 64 ROWS",
	"SELECT AVG(delay2) AS a FROM traffic WINDOW 48 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay2) AS a FROM traffic WINDOW 48 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay2) AS a FROM traffic WINDOW 48 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay) AS a, COUNT(road_id) AS c FROM traffic WHERE delay > 55 WINDOW 5 ROWS",
	"SELECT SUM(delay2) AS s FROM traffic WHERE delay2 < 48 WINDOW 4 ROWS BACKEND BOOTSTRAP",
	"SELECT AVG(delay2) AS b FROM traffic WINDOW 6 ROWS BACKEND BOOTSTRAP",
	"SELECT AVG(delay2) AS b FROM traffic WINDOW 6 ROWS BACKEND BOOTSTRAP",
	"SELECT MIN(delay) AS lo, MAX(delay2) AS hi FROM traffic WINDOW 5 ROWS",
	"SELECT road_id, AVG(delay) AS a FROM traffic GROUP BY road_id WINDOW 3 ROWS",
	"SELECT AVG(delay2) AS a, MAX(delay) AS m FROM traffic WINDOW 20 SECONDS",
	"SELECT AVG(delay) AS a FROM traffic WHERE delay > delay2 WINDOW 4 ROWS",
	"SELECT AVG(delay2) AS a, SUM(delay) AS s FROM traffic WINDOW 64 ROWS BACKEND SKETCH",
	"SELECT MIN(delay) AS lo, AVG(delay2) AS a FROM traffic WHERE delay * delay2 > 2400 WINDOW 4 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 7 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 8 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 9 ROWS",
}

const batchTuples = 10000

// batchRows returns the seeded stream: delay is Normal except for a
// histogram at every 150th tuple, so a histogram enters and, 64 tuples
// later, leaves every Gaussian window over it; delay2 mixes Normal and
// Point fields; every 997th tuple goes back in time, which the time window
// refuses.
func batchRows(t *testing.T) []IngestRow {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	hist, err := dist.HistogramFromCounts([]float64{40, 50, 60, 70}, []int{3, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]IngestRow, batchTuples)
	for i := range rows {
		delay := randvar.Field{Dist: hist, N: 10}
		if i%150 != 149 {
			nd, err := dist.NewNormal(45+20*rng.Float64(), 1+30*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			delay = randvar.Field{Dist: nd, N: 2 + rng.Intn(30)}
		}
		delay2 := randvar.Det(40 + float64(rng.Intn(20)))
		if i%3 != 0 {
			nd, err := dist.NewNormal(40+15*rng.Float64(), 0.5+20*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			delay2 = randvar.Field{Dist: nd, N: 5 + rng.Intn(40)}
		}
		tm := int64(i)
		if i%997 == 996 {
			tm -= 50
		}
		rows[i] = IngestRow{Fields: []randvar.Field{randvar.Det(float64(i % 4)), delay, delay2}, Time: tm}
	}
	return rows
}

// batchRun is everything one engine produced for the batching workload,
// collected until the stream ends.
type batchRun struct {
	qs      []*Query
	results map[string][]Result
	errs    map[string][]string
}

// runBatches binds the workload on a fresh engine with EXPLAIN … TIMING on
// for every query and ingests rows in batches of the given sizes, cycling.
func runBatches(t *testing.T, rows []IngestRow, sizes []int) *batchRun {
	t.Helper()
	cfg := Config{Method: AccuracyAnalytical, Seed: 5, MonteCarloValues: 32, BootstrapResamples: 10, MinProb: 0.05}
	e := newTestEngine(t, cfg)
	r := &batchRun{qs: bindAll(t, e, batchWorkload), results: map[string][]Result{}, errs: map[string][]string{}}
	for _, q := range r.qs {
		q.timing.Enable()
	}
	for i, b := 0, 0; i < len(rows); b++ {
		n := min(sizes[b%len(sizes)], len(rows)-i)
		out, err := e.IngestBatch("traffic", rows[i:i+n], nil)
		if err != nil {
			t.Fatal(err)
		}
		i += n
		for _, qr := range out {
			r.results[qr.ID] = append(r.results[qr.ID], qr.Results...)
			if qr.Err != nil {
				r.errs[qr.ID] = append(r.errs[qr.ID], qr.Err.Error())
			}
		}
	}
	return r
}

// TestBatchMatchesSingles holds ingest in batches of random size 1–13 to
// the same stream ingested one tuple per batch: every result and error,
// STATS, telemetry, checkpoint state, the plan groups' lead and follow
// tallies, and how often each EXPLAIN … TIMING stage ran. The first batch is
// 13 tuples, so the windows of 3 to 9 rows fill in its middle.
func TestBatchMatchesSingles(t *testing.T) {
	rows := batchRows(t)
	rng := rand.New(rand.NewSource(13))
	sizes := []int{13}
	for n := 13; n < len(rows); n += sizes[len(sizes)-1] {
		sizes = append(sizes, 1+rng.Intn(13))
	}
	batched := runBatches(t, rows, sizes)
	singles := runBatches(t, rows, []int{1})

	for i, q := range batched.qs {
		id, sq := queryID(i), singles.qs[i]
		if a, b := batched.errs[id], singles.errs[id]; !reflect.DeepEqual(a, b) {
			t.Errorf("%s: errors diverged:\n  batched %q\n  singles %q", id, a, b)
		}
		if a, b := batched.results[id], singles.results[id]; !reflect.DeepEqual(a, b) {
			t.Errorf("%s: results diverged (%d batched, %d singles)", id, len(a), len(b))
		}
		if len(singles.results[id]) == 0 {
			t.Errorf("%s emitted nothing", id)
		}
		if a, b := q.Stats(), sq.Stats(); a != b {
			t.Errorf("%s: stats diverged: batched %+v, singles %+v", id, a, b)
		}
		if a, b := q.Telemetry(), sq.Telemetry(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: telemetry diverged:\n  batched %+v\n  singles %+v", id, a, b)
		}
		if a, b := stateBytes(t, q), stateBytes(t, sq); string(a) != string(b) {
			t.Errorf("%s: checkpoint state diverged", id)
		}
		if a, b := q.group.leads.Load(), sq.group.leads.Load(); a != b || q.group.follows.Load() != sq.group.follows.Load() {
			t.Errorf("%s: group led %d and followed %d times batched, %d and %d singly",
				id, a, q.group.follows.Load(), b, sq.group.follows.Load())
		}
		var a, b []uint64
		for s, st := range q.timing.Snapshot() {
			a, b = append(a, st.Count), append(b, sq.timing.Snapshot()[s].Count)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: stage counts %v batched, %v singly", id, a, b)
		}
	}
	// The workload must exercise what it claims: a shared group of three,
	// errors from the time window, and tuples dropped by a filter.
	if n := len(batched.qs[5].group.members); n != 3 {
		t.Errorf("AVG(delay2) over 48 rows shares a group of %d, want 3", n)
	}
	if len(singles.errs[queryID(14)]) == 0 {
		t.Error("the time window refused nothing")
	}
	if singles.qs[8].Stats().Dropped == 0 {
		t.Error("the filter dropped nothing")
	}
}
