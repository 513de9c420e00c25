package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// TestGroupByAggregate: per-group count windows with the group key in the
// select list.
func TestGroupByAggregate(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id WINDOW 2 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	// Interleave two groups; each emits once its own window fills.
	var results []Result
	push := func(road, mu float64) {
		res, err := q.Push(trafficTuple(t, e, road, mu, 20, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res...)
	}
	push(1, 10)
	push(2, 100)
	if len(results) != 0 {
		t.Fatalf("no group window is full yet: %v", results)
	}
	push(1, 20) // group 1 full: AVG = 15
	push(2, 200)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	r1, r2 := results[0], results[1]
	approx(t, "group 1 key", r1.Tuple.Fields[0].Dist.Mean(), 1, 0)
	approx(t, "group 1 AVG", r1.Tuple.Fields[1].Dist.Mean(), 15, 1e-9)
	approx(t, "group 2 key", r2.Tuple.Fields[0].Dist.Mean(), 2, 0)
	approx(t, "group 2 AVG", r2.Tuple.Fields[1].Dist.Mean(), 150, 1e-9)
	// Sliding within a group.
	push(1, 30) // window now {20, 30} → 25
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	approx(t, "group 1 slide", results[2].Tuple.Fields[1].Dist.Mean(), 25, 1e-9)
}

// TestGroupByWindowStartsSmall: a GROUP BY over a large count window pays
// for the rows each key holds, not for the window size: 64 keys of one
// tuple each over WINDOW 65536 ROWS, compile included, allocate under
// 8 MiB (a full window per key would be over 300 MiB).
func TestGroupByWindowStartsSmall(t *testing.T) {
	e := newTestEngine(t, Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q, err := e.Compile("SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id WINDOW 65536 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	for key := 0; key < 64; key++ {
		if _, err := q.Push(trafficTuple(t, e, float64(key), 10, 20, 0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("64 one-tuple groups allocated %d bytes, want under %d", got, 8<<20)
	}
}

func TestGroupByErrors(t *testing.T) {
	e := newTestEngine(t, Config{})
	bad := []string{
		"SELECT road_id, AVG(delay) FROM traffic GROUP BY ghost WINDOW 2 ROWS",
		"SELECT road_id, AVG(delay) FROM traffic GROUP BY delay WINDOW 2 ROWS",  // probabilistic key
		"SELECT delay2, AVG(delay) FROM traffic GROUP BY road_id WINDOW 2 ROWS", // scalar not the key
		"SELECT road_id FROM traffic GROUP BY road_id",                          // no aggregate
		"SELECT * FROM traffic GROUP BY road_id",                                // star + group
		"SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id",              // no window
	}
	for _, s := range bad {
		if _, err := e.Compile(s); err == nil {
			t.Errorf("Compile(%q): want error", s)
		}
	}
}

// TestSecondsAggregate: WINDOW n SECONDS evicts by tuple timestamp and
// emits on every arrival.
func TestSecondsAggregate(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT AVG(delay) FROM traffic WINDOW 10 SECONDS")
	if err != nil {
		t.Fatal(err)
	}
	push := func(ts int64, mu float64) []Result {
		tp := trafficTuple(t, e, 1, mu, 20, 0, 10)
		tp.Time = ts
		res, err := q.Push(tp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r := push(0, 10)
	if len(r) != 1 {
		t.Fatalf("time windows emit on every arrival, got %d", len(r))
	}
	approx(t, "avg of one", r[0].Tuple.Fields[0].Dist.Mean(), 10, 1e-9)
	r = push(5, 20)
	approx(t, "avg of both", r[0].Tuple.Fields[0].Dist.Mean(), 15, 1e-9)
	// t=15: the t=0 tuple (age 15 > 10) is evicted, t=5 remains.
	r = push(15, 40)
	approx(t, "avg after eviction", r[0].Tuple.Fields[0].Dist.Mean(), 30, 1e-9)
	// Out-of-order arrival errors and leaves the window as it was.
	tp := trafficTuple(t, e, 1, 10, 20, 0, 10)
	tp.Time = 1
	if _, err := q.Push(tp); err == nil || err.Error() != "stream: out-of-order tuple: time 1 after 15" {
		t.Errorf("out-of-order tuple: err = %v", err)
	}
	// t=25: t=5 (age 20) leaves, t=15 (exactly 10 old) stays.
	r = push(25, 60)
	approx(t, "avg after rejected push", r[0].Tuple.Fields[0].Dist.Mean(), 50, 1e-9)
}

// TestGroupByNaNKey: NaN is a well-formed deterministic field value, but as
// a group key it equals nothing, itself included — every such tuple would
// miss the group map and leave a fresh window behind. The push is refused.
func TestGroupByNaNKey(t *testing.T) {
	e := newTestEngine(t, Config{})
	for _, window := range []string{"WINDOW 1000 ROWS", "WINDOW 10 SECONDS"} {
		q, err := e.Compile("SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id " + window)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10_000; i++ {
			if _, err := q.Push(trafficTuple(t, e, math.NaN(), 10, 20, 0, 10)); err == nil {
				t.Fatal("NaN group key: want error")
			}
		}
		if n := len(q.group.groups); n != 0 {
			t.Fatalf("%s: %d group windows after NaN-keyed inserts, want 0", window, n)
		}
		// ±Inf are ordinary map keys and keep their groups.
		for _, k := range []float64{math.Inf(1), math.Inf(-1), math.Inf(1)} {
			if _, err := q.Push(trafficTuple(t, e, k, 10, 20, 0, 10)); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(q.group.groups); n != 2 {
			t.Fatalf("%s: %d group windows after ±Inf keys, want 2", window, n)
		}
	}
}

// TestGroupedSecondsWindow combines GROUP BY with a time window.
func TestGroupedSecondsWindow(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id, COUNT(delay) FROM traffic GROUP BY road_id WINDOW 10 SECONDS")
	if err != nil {
		t.Fatal(err)
	}
	push := func(road float64, ts int64) []Result {
		tp := trafficTuple(t, e, road, 10, 20, 0, 10)
		tp.Time = ts
		res, err := q.Push(tp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	push(1, 0)
	push(1, 5)
	r := push(1, 8)
	approx(t, "group 1 count", r[0].Tuple.Fields[1].Dist.Mean(), 3, 0)
	// A different group has its own (empty) window.
	r = push(2, 9)
	approx(t, "group 2 count", r[0].Tuple.Fields[1].Dist.Mean(), 1, 0)
	// Old tuples of group 1 expire independently.
	r = push(1, 20)
	approx(t, "group 1 after expiry", r[0].Tuple.Fields[1].Dist.Mean(), 1, 0)
}

// joinEngine builds an engine with two streams for join tests.
func joinEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Config{Method: AccuracyAnalytical})
	if err != nil {
		t.Fatal(err)
	}
	roads, err := stream.NewSchema("roads",
		stream.Column{Name: "rid"},
		stream.Column{Name: "delay", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	weather, err := stream.NewSchema("weather",
		stream.Column{Name: "rid"},
		stream.Column{Name: "rain", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream(roads); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream(weather); err != nil {
		t.Fatal(err)
	}
	return e
}

func joinTuple(t *testing.T, e *Engine, streamName string, key, mu float64, n int) *stream.Tuple {
	t.Helper()
	nd, err := dist.NewNormal(mu, 25)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.NewTuple(streamName, []randvar.Field{randvar.Det(key), {Dist: nd, N: n}})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestJoinBasic: tuples match on equal deterministic keys, probabilities
// multiply, and qualified columns are selectable.
func TestJoinBasic(t *testing.T) {
	e := joinEngine(t)
	q, err := e.Compile(
		"SELECT roads.delay, weather.rain FROM roads JOIN weather ON roads.rid = weather.rid WINDOW 16 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	// Push a road tuple first: no match yet.
	res, err := q.Push(joinTuple(t, e, "roads", 7, 60, 20))
	if err != nil || len(res) != 0 {
		t.Fatalf("no match expected: %v, %v", res, err)
	}
	// Matching weather tuple arrives: one joined result.
	res, err = q.Push(joinTuple(t, e, "weather", 7, 3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	out := res[0].Tuple
	approx(t, "joined delay", out.Fields[0].Dist.Mean(), 60, 1e-9)
	approx(t, "joined rain", out.Fields[1].Dist.Mean(), 3, 1e-9)
	if out.Fields[0].N != 20 || out.Fields[1].N != 30 {
		t.Errorf("sample sizes lost: %d, %d", out.Fields[0].N, out.Fields[1].N)
	}
	// Non-matching key: nothing.
	res, err = q.Push(joinTuple(t, e, "weather", 8, 5, 30))
	if err != nil || len(res) != 0 {
		t.Fatalf("key mismatch: %v, %v", res, err)
	}
	if q.Stats().Joined != 1 {
		t.Errorf("stats = %+v", q.Stats())
	}
}

// TestJoinProbabilityAndWhere: membership probabilities multiply across
// sides and WHERE applies to the combined tuple.
func TestJoinProbabilityAndWhere(t *testing.T) {
	e := joinEngine(t)
	q, err := e.Compile(
		"SELECT roads.delay FROM roads JOIN weather ON rid = rid WHERE weather.rain > 3 WINDOW 8 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	left := joinTuple(t, e, "roads", 1, 60, 20)
	left.Prob = 0.5
	left.ProbN = 10
	if _, err := q.Push(left); err != nil {
		t.Fatal(err)
	}
	right := joinTuple(t, e, "weather", 1, 3, 40) // P(rain > 3) = 0.5
	right.Prob = 0.8
	res, err := q.Push(right)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	// 0.5 (left) × 0.8 (right) × 0.5 (WHERE) = 0.2.
	approx(t, "joined prob", res[0].Tuple.Prob, 0.2, 1e-9)
	// ProbN: min(left 10, rain field 40) = 10.
	if res[0].Tuple.ProbN != 10 {
		t.Errorf("ProbN = %d, want 10", res[0].Tuple.ProbN)
	}
}

// TestJoinExpressionAcrossStreams evaluates an arithmetic expression over
// columns of both sides, checking d.f. propagation (Lemma 3) across the
// join.
func TestJoinExpressionAcrossStreams(t *testing.T) {
	e := joinEngine(t)
	q, err := e.Compile(
		"SELECT (roads.delay + weather.rain) / 2 AS mix FROM roads JOIN weather ON rid = rid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Push(joinTuple(t, e, "roads", 1, 60, 15)); err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(joinTuple(t, e, "weather", 1, 10, 10))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	f := res[0].Tuple.Fields[0]
	approx(t, "mix mean", f.Dist.Mean(), 35, 1e-9)
	if f.N != 10 {
		t.Errorf("d.f. size = %d, want min(15,10)", f.N)
	}
	if res[0].Fields["mix"] == nil {
		t.Error("missing accuracy on joined expression")
	}
}

// TestJoinWindowEviction: tuples outside the per-side window no longer
// match.
func TestJoinWindowEviction(t *testing.T) {
	e := joinEngine(t)
	q, err := e.Compile(
		"SELECT roads.delay FROM roads JOIN weather ON rid = rid WINDOW 2 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the roads window beyond capacity; key 1 is evicted.
	for key := 1.0; key <= 3; key++ {
		if _, err := q.Push(joinTuple(t, e, "roads", key, 60, 20)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := q.Push(joinTuple(t, e, "weather", 1, 5, 20))
	if err != nil || len(res) != 0 {
		t.Fatalf("evicted key should not match: %v, %v", res, err)
	}
	res, err = q.Push(joinTuple(t, e, "weather", 3, 5, 20))
	if err != nil || len(res) != 1 {
		t.Fatalf("in-window key should match: %v, %v", res, err)
	}
}

// TestJoinMultipleMatches: one arrival can join with several retained
// tuples.
func TestJoinMultipleMatches(t *testing.T) {
	e := joinEngine(t)
	q, err := e.Compile("SELECT weather.rain FROM roads JOIN weather ON rid = rid WINDOW 8 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Push(joinTuple(t, e, "roads", 5, 60, 20)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := q.Push(joinTuple(t, e, "weather", 5, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3", len(res))
	}
}

func TestJoinCompileErrors(t *testing.T) {
	e := joinEngine(t)
	bad := []string{
		"SELECT x FROM roads JOIN nosuch ON rid = rid",
		"SELECT x FROM nosuch JOIN weather ON rid = rid",
		"SELECT roads.delay FROM roads JOIN weather ON ghost = rid",
		"SELECT roads.delay FROM roads JOIN weather ON rid = ghost",
		"SELECT roads.delay FROM roads JOIN weather ON delay = rid",                  // probabilistic key
		"SELECT AVG(roads.delay) FROM roads JOIN weather ON rid = rid WINDOW 4 ROWS", // agg over join
		"SELECT roads.delay FROM roads JOIN weather ON rid = rid WINDOW 4 SECONDS",   // time join
	}
	for _, s := range bad {
		if _, err := e.Compile(s); err == nil {
			t.Errorf("Compile(%q): want error", s)
		}
	}
	// Self-join rejected.
	if _, err := e.Compile("SELECT roads.delay FROM roads JOIN roads ON rid = rid"); err == nil {
		t.Error("self-join: want error")
	}
	// Pushing an unrelated stream into a join errors.
	q, err := e.Compile("SELECT roads.delay FROM roads JOIN weather ON rid = rid")
	if err != nil {
		t.Fatal(err)
	}
	other, _ := stream.NewSchema("other", stream.Column{Name: "x"})
	if err := e.RegisterStream(other); err != nil {
		t.Fatal(err)
	}
	tp, _ := stream.NewTuple(other, []randvar.Field{randvar.Det(1)})
	if _, err := q.Push(tp); err == nil {
		t.Error("unrelated stream: want error")
	}
}

// TestKSTestPredicate: the KSTEST SQL predicate detects distribution
// change between two probabilistic columns.
func TestKSTestPredicate(t *testing.T) {
	e := newTestEngine(t, Config{})
	// delay ~ N(60,100) vs delay2 ~ N(120,100): clearly different.
	q, err := e.Compile("SELECT road_id FROM traffic WHERE KSTEST(delay, delay2, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 1, 60, 80, 120, 80))
	if err != nil || len(res) != 1 {
		t.Fatalf("different distributions: %v, %v", res, err)
	}
	// Same distribution: not significant → dropped.
	res, err = q.Push(trafficTuple(t, e, 2, 60, 80, 60, 80))
	if err != nil || len(res) != 0 {
		t.Fatalf("same distributions: %v, %v", res, err)
	}
	// Coupled form answers FALSE (same, high power) → dropped, and
	// UNSURE (tiny n) → kept with the flag.
	qc, err := e.Compile("SELECT road_id FROM traffic WHERE KSTEST(delay, delay2, 0.2, 0.05, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	res, err = qc.Push(trafficTuple(t, e, 3, 60, 2000, 60, 2000))
	if err != nil || len(res) != 0 {
		t.Fatalf("coupled same: %v, %v", res, err)
	}
	res, err = qc.Push(trafficTuple(t, e, 4, 60, 3, 60, 3))
	if err != nil || len(res) != 1 || !res[0].Unsure {
		t.Fatalf("coupled tiny-n should be UNSURE: %v, %v", res, err)
	}
	// Compile errors.
	bad := []string{
		"SELECT road_id FROM traffic WHERE KSTEST(delay, delay2)",
		"SELECT road_id FROM traffic WHERE KSTEST(delay, delay2, 2)",
		"SELECT road_id FROM traffic WHERE KSTEST(delay, ghost, 0.05)",
		"SELECT road_id FROM traffic WHERE KSTEST(1+1, delay2, 0.05)",
		"SELECT KSTEST(delay, delay2, 0.05) FROM traffic",
	}
	for _, s := range bad {
		if _, err := e.Compile(s); err == nil {
			t.Errorf("Compile(%q): want error", s)
		}
	}
	// Runtime error on missing sample sizes.
	tp := trafficTuple(t, e, 5, 60, 80, 120, 80)
	tp.Fields[1].N = 0
	if _, err := q.Push(tp); err == nil {
		t.Error("KSTEST without sample size: want error")
	}
}

// TestExplain covers the plan renderer across query shapes.
func TestExplain(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyBootstrap})
	cases := []struct {
		sql      string
		contains []string
	}{
		{
			"SELECT road_id, (delay + delay2) / 2 AS avg2 FROM traffic WHERE delay > 50",
			[]string{"source: stream traffic", "filter:", "passthrough", "linear", "bootstrap"},
		},
		{
			"SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id WINDOW 5 ROWS",
			[]string{"grouped by road_id", "count window of 5 rows", "AVG(delay)", "Gaussian closed form"},
		},
		{
			"SELECT AVG(delay) FROM traffic WINDOW 30 SECONDS",
			[]string{"time window of 30 seconds"},
		},
		{
			"SELECT SQRT(ABS(delay)) AS r FROM traffic",
			[]string{"Monte Carlo"},
		},
	}
	for _, c := range cases {
		q, err := e.Compile(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		plan := q.Explain()
		for _, want := range c.contains {
			if !strings.Contains(plan, want) {
				t.Errorf("Explain(%s) missing %q:\n%s", c.sql, want, plan)
			}
		}
	}
	// Join plan.
	je := joinEngine(t)
	q, err := je.Compile("SELECT roads.delay FROM roads JOIN weather ON rid = rid WINDOW 8 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	plan := q.Explain()
	if !strings.Contains(plan, "equi-join roads ⋈ weather") || !strings.Contains(plan, "window 8 rows per side") {
		t.Errorf("join plan:\n%s", plan)
	}
}
