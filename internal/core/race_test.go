package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// raceTuple builds a traffic tuple without t.Fatal, so it is safe to call
// from spawned goroutines (which may only use t.Error).
func raceTuple(e *Engine, road, mu float64, n int) (*stream.Tuple, error) {
	d1, err := dist.NewNormal(mu, 100)
	if err != nil {
		return nil, err
	}
	d2, err := dist.NewNormal(mu+5, 100)
	if err != nil {
		return nil, err
	}
	return e.NewTuple("traffic", []randvar.Field{
		randvar.Det(road),
		{Dist: d1, N: n},
		{Dist: d2, N: n},
	})
}

// TestEngineConcurrentQueries drives one shared Engine from several
// goroutines under the race detector. The engine's documented contract is
// that stream registration, tuple creation, and query compilation are
// concurrent-safe while each compiled Query is single-goroutine; here every
// goroutine compiles its own bootstrap-method query and pushes its own
// tuples through it, sharing only the engine (and its sequence counter).
func TestEngineConcurrentQueries(t *testing.T) {
	e := newTestEngine(t, Config{
		Method:           AccuracyBootstrap,
		MonteCarloValues: 200,
	})

	goroutines := 4
	if p := runtime.GOMAXPROCS(0); p > goroutines {
		goroutines = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// SQRT forces the Monte Carlo path, so every push runs
			// BOOTSTRAP-ACCURACY-INFO on a fresh value sequence.
			q, err := e.Compile("SELECT SQRT(delay) AS s FROM traffic")
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: compile: %v", g, err)
				return
			}
			for i := 0; i < 20; i++ {
				tp, err := raceTuple(e, float64(g), 25+float64(i), 40)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: tuple %d: %v", g, i, err)
					return
				}
				res, err := q.Push(tp)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: push %d: %v", g, i, err)
					return
				}
				for _, r := range res {
					if info := r.Fields["s"]; info == nil {
						errs <- fmt.Errorf("goroutine %d: missing accuracy info for s", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// raceRow builds one ingest row (det key + two normal fields) without
// t.Fatal, so it is safe from spawned goroutines.
func raceRow(key, mu float64, n int) (IngestRow, error) {
	d1, err := dist.NewNormal(mu, 100)
	if err != nil {
		return IngestRow{}, err
	}
	d2, err := dist.NewNormal(mu+5, 100)
	if err != nil {
		return IngestRow{}, err
	}
	return IngestRow{Fields: []randvar.Field{
		randvar.Det(key),
		{Dist: d1, N: n},
		{Dist: d2, N: n},
	}}, nil
}

// TestQueryConcurrentPushStats verifies the documented concurrency of the
// query introspection surface: Stats and Telemetry may be called while the
// query is being pushed (counters are atomics, telemetry rings carry their
// own mutex). Run under -race.
func TestQueryConcurrentPushStats(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyBootstrap, MonteCarloValues: 100})
	q, err := e.Compile("SELECT AVG(delay) FROM traffic WINDOW 4 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("q", q); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = q.Stats()
				_ = q.Telemetry()
			}
		}()
	}
	const pushes = 40
	for i := 0; i < pushes; i++ {
		row, err := raceRow(1, 25+float64(i), 40)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.IngestBatch("traffic", []IngestRow{row}, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	if st := q.Stats(); st.In != pushes {
		t.Fatalf("Stats.In = %d, want %d", st.In, pushes)
	}
}

// TestEngineConcurrentShardedIngest exercises the shard-group locking:
// four streams fed concurrently, each with a per-stream windowed query,
// plus one join query coupling streams r0 and r1 (so their ingests take a
// multi-shard lock group). Per-query input counts must be exact — no
// tuple lost or double-pushed under contention. Run under -race.
func TestEngineConcurrentShardedIngest(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyBootstrap, MonteCarloValues: 50})
	const streams, batches, rows = 4, 8, 4
	for i := 0; i < streams; i++ {
		schema, err := stream.NewSchema(fmt.Sprintf("r%d", i),
			stream.Column{Name: "key"},
			stream.Column{Name: "val", Probabilistic: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterStream(schema); err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(fmt.Sprintf("SELECT AVG(val) FROM r%d WINDOW 6 ROWS", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Bind(fmt.Sprintf("q%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	join, err := e.Compile("SELECT r0.val FROM r0 JOIN r1 ON key = key WINDOW 6 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("qjoin", join); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]IngestRow, rows)
				for r := range batch {
					d, err := dist.NewNormal(20+float64(b*rows+r), 25)
					if err != nil {
						errs <- err
						return
					}
					batch[r] = IngestRow{Fields: []randvar.Field{
						randvar.Det(float64(r % 3)),
						{Dist: d, N: 30},
					}}
				}
				results, err := e.IngestBatch(fmt.Sprintf("r%d", i), batch, nil)
				if err != nil {
					errs <- fmt.Errorf("stream r%d batch %d: %v", i, b, err)
					return
				}
				for _, qr := range results {
					if qr.Err != nil {
						errs <- fmt.Errorf("stream r%d: query %s: %v", i, qr.ID, qr.Err)
						return
					}
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < streams; i++ {
		if st := e.Bound(fmt.Sprintf("q%d", i)).Stats(); st.In != batches*rows {
			t.Errorf("q%d saw %d tuples, want %d", i, st.In, batches*rows)
		}
	}
	if st := e.Bound("qjoin").Stats(); st.In != 2*batches*rows {
		t.Errorf("join query saw %d tuples, want %d (both r0 and r1)", st.In, 2*batches*rows)
	}
}

// TestEngineConcurrentRegistration hammers schema lookup and tuple creation
// from many goroutines — the engine's shared map under its RWMutex.
func TestEngineConcurrentRegistration(t *testing.T) {
	e := newTestEngine(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := e.Schema("traffic"); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := raceTuple(e, 1, 20, 30); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
