package core

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// pushBoth feeds the same logical tuple to two engines' queries and demands
// bit-identical results (distribution parameters, accuracy intervals,
// sample sizes, probabilities — everything a client can observe).
func pushBoth(t *testing.T, name string, qa, qb *Query, ta, tb *stream.Tuple) {
	t.Helper()
	ra, ea := qa.Push(ta)
	rb, eb := qb.Push(tb)
	if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
		t.Fatalf("%s: error mismatch: %v vs %v", name, ea, eb)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d results", name, len(ra), len(rb))
	}
	for i := range ra {
		if !reflect.DeepEqual(ra[i], rb[i]) {
			t.Fatalf("%s: result %d differs:\n%+v\n%+v", name, i, ra[i], rb[i])
		}
	}
}

// mixedDelay swaps in a histogram delay on a stride so the aggregate has to
// leave the Gaussian closed form and exercise the Monte Carlo fallback.
func mixedDelay(t *testing.T, e *Engine, i int) *stream.Tuple {
	t.Helper()
	road := float64(i % 3)
	if i%5 == 4 {
		h, err := dist.HistogramFromCounts(
			[]float64{50, 60, 70, 80}, []int{2, 5, 3})
		if err != nil {
			t.Fatal(err)
		}
		d2, err := dist.NewNormal(40+float64(i%7), 100)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := e.NewTuple("traffic", []randvar.Field{
			randvar.Det(road), {Dist: h, N: 10}, {Dist: d2, N: 12},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	return trafficTuple(t, e, road, 55+float64(i%9), 10+i%4, 40+float64(i%7), 12)
}

// TestColumnarWorkersBitIdentical pins that the columnar path itself is
// worker-count-invariant: bootstrap accuracy at 1 worker and 8 workers
// produces identical results (same RNG substream derivation, same
// summation order).
func TestColumnarWorkersBitIdentical(t *testing.T) {
	cfg := Config{Method: AccuracyBootstrap, Seed: 11, MonteCarloValues: 80, BootstrapResamples: 60}
	one := cfg
	one.Workers = 1
	eight := cfg
	eight.Workers = 8
	e1 := newTestEngine(t, one)
	e8 := newTestEngine(t, eight)
	const sql = "SELECT AVG(delay) AS a, MIN(delay2) AS lo FROM traffic WINDOW 5 ROWS"
	q1, err := e1.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	q8, err := e8.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pushBoth(t, sql, q1, q8, mixedDelay(t, e1, i), mixedDelay(t, e8, i))
	}
}
