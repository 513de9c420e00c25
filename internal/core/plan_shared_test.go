package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
)

// sharedRow builds one ingest row of the traffic stream, swapping in a
// histogram delay on a stride so aggregates exercise both the Gaussian
// closed form and the Monte Carlo fallback while shared.
func sharedRow(t *testing.T, i int) IngestRow {
	t.Helper()
	road := randvar.Det(float64(i % 3))
	var d1 randvar.Field
	if i%5 == 4 {
		h, err := dist.HistogramFromCounts([]float64{50, 60, 70, 80}, []int{2, 5, 3})
		if err != nil {
			t.Fatal(err)
		}
		d1 = randvar.Field{Dist: h, N: 10}
	} else {
		nd, err := dist.NewNormal(55+float64(i%9), 100)
		if err != nil {
			t.Fatal(err)
		}
		d1 = randvar.Field{Dist: nd, N: 10 + i%4}
	}
	nd2, err := dist.NewNormal(40+float64(i%7), 100)
	if err != nil {
		t.Fatal(err)
	}
	return IngestRow{Fields: []randvar.Field{road, d1, {Dist: nd2, N: 12}}, Time: int64(i)}
}

// compileAll compiles the statements, in order, on an engine.
func compileAll(t *testing.T, e *Engine, stmts []string) []*Query {
	t.Helper()
	qs := make([]*Query, len(stmts))
	for i, s := range stmts {
		q, err := e.Compile(s)
		if err != nil {
			t.Fatalf("compile %q: %v", s, err)
		}
		qs[i] = q
	}
	return qs
}

// queryID is the id the tests bind statement i under: zero-padded, so
// IngestBatch result order is the statement order.
func queryID(i int) string { return fmt.Sprintf("q%03d", i) }

// bindAll compiles and binds the same statements, in the same order, on an
// engine.
func bindAll(t *testing.T, e *Engine, stmts []string) []*Query {
	t.Helper()
	qs := compileAll(t, e, stmts)
	for i, q := range qs {
		if err := e.Bind(queryID(i), q); err != nil {
			t.Fatal(err)
		}
	}
	return qs
}

// aloneRef is the reference the planner is held to: per statement i, one
// engine that compiles the whole workload — so evaluator seeds and tuple
// sequence numbers match the shared engine's — but binds only query i,
// which therefore shares with no one.
type aloneRef struct {
	engines map[int]*Engine
	queries map[int]*Query
}

// newAloneRef builds alone engines for the statements at the given indices
// (every statement when none are given).
func newAloneRef(t *testing.T, cfg Config, stmts []string, only ...int) *aloneRef {
	t.Helper()
	if len(only) == 0 {
		for i := range stmts {
			only = append(only, i)
		}
	}
	r := &aloneRef{engines: make(map[int]*Engine), queries: make(map[int]*Query)}
	for _, i := range only {
		e := newTestEngine(t, cfg)
		q := compileAll(t, e, stmts)[i]
		if err := e.Bind(queryID(i), q); err != nil {
			t.Fatal(err)
		}
		r.engines[i], r.queries[i] = e, q
	}
	return r
}

// unbind detaches statement i from its alone engine, as the shared engine
// does with its member.
func (r *aloneRef) unbind(i int) {
	r.engines[i].Unbind(queryID(i))
	delete(r.engines, i)
}

// ingestAlone pushes the identical batch through the shared engine and every
// alone engine and demands that each alone query's results and errors equal
// its shared twin's bit for bit. It returns the shared engine's results.
func ingestAlone(t *testing.T, label string, shared *Engine, ref *aloneRef, rows []IngestRow) []QueryResults {
	t.Helper()
	ra, err := shared.IngestBatch("traffic", rows, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	byID := make(map[string]QueryResults, len(ra))
	for _, qr := range ra {
		byID[qr.ID] = qr
	}
	for i, e := range ref.engines {
		rb, err := e.IngestBatch("traffic", rows, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(rb) != 1 {
			t.Fatalf("%s: alone engine %d returned %d query results", label, i, len(rb))
		}
		a, ok := byID[queryID(i)]
		if !ok {
			t.Fatalf("%s: shared engine has no results for %s", label, queryID(i))
		}
		compareResults(t, label, a, rb[0])
	}
	return ra
}

// checkAloneStats demands the STATS counters of every alone query equal its
// shared twin's.
func checkAloneStats(t *testing.T, qs []*Query, ref *aloneRef) {
	t.Helper()
	for i, q := range ref.queries {
		if sa, sb := qs[i].Stats(), q.Stats(); sa != sb {
			t.Errorf("query %d stats diverged: shared %+v, alone %+v", i, sa, sb)
		}
	}
}

// compareResults demands two engines' results for one query be identical.
func compareResults(t *testing.T, label string, a, b QueryResults) {
	t.Helper()
	if a.ID != b.ID {
		t.Fatalf("%s: result order diverged: %s vs %s", label, a.ID, b.ID)
	}
	ae, be := "", ""
	if a.Err != nil {
		ae = a.Err.Error()
	}
	if b.Err != nil {
		be = b.Err.Error()
	}
	if ae != be {
		t.Fatalf("%s: query %s error mismatch:\n  a: %s\n  b: %s", label, a.ID, ae, be)
	}
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Fatalf("%s: query %s results diverged:\n  a: %+v\n  b: %+v", label, a.ID, a.Results, b.Results)
	}
}

// sharedWorkload mixes identical queries (one big shared group), a group
// that shares window state but not output plans, Monte Carlo aggregates,
// filtered classes, and an unshareable query.
var sharedWorkload = []string{
	"SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS",
	// Same key, different output plan: window shared, emissions per-member.
	"SELECT AVG(delay) AS b, COUNT(road_id) AS c FROM traffic WINDOW 4 ROWS",
	"SELECT SUM(delay2) AS s FROM traffic WINDOW 4 ROWS",
	// Monte Carlo aggregates over the shared materialized columns.
	"SELECT MIN(delay) AS lo, MAX(delay2) AS hi FROM traffic WINDOW 4 ROWS",
	// Filtered equivalence class (closed-form filter, shareable).
	"SELECT AVG(delay) AS a FROM traffic WHERE delay > 50 WINDOW 3 ROWS",
	"SELECT AVG(delay) AS a FROM traffic WHERE delay > 50 WINDOW 3 ROWS",
	// Unshareable: expression comparison may consume per-query randomness.
	"SELECT AVG(delay) AS a FROM traffic WHERE delay > delay2 WINDOW 4 ROWS",
}

// TestSharedStateEquivalence pins the planner's core promise: sharing
// per-(stream, filter, window, backend) state changes no output bit relative
// to each query running alone, across accuracy methods.
func TestSharedStateEquivalence(t *testing.T) {
	for _, m := range []AccuracyMethod{AccuracyNone, AccuracyAnalytical, AccuracyBootstrap} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := Config{Method: m, Seed: 7, MonteCarloValues: 64, BootstrapResamples: 40}
			shared := newTestEngine(t, cfg)
			qs := bindAll(t, shared, sharedWorkload)
			ref := newAloneRef(t, cfg, sharedWorkload)
			if g := shared.Planner().Groups(); g == 0 {
				t.Fatal("no shared groups formed")
			}
			for i := 0; i < 30; i += 3 {
				rows := []IngestRow{sharedRow(t, i), sharedRow(t, i+1), sharedRow(t, i+2)}
				ingestAlone(t, fmt.Sprintf("batch@%d", i), shared, ref, rows)
			}
			checkAloneStats(t, qs, ref)
		})
	}
}

// TestSharedStatsEquivalence demands STATS counters (in/out/dropped/unsure)
// are indistinguishable between shared and alone runs — the shared path
// replays per-member counters rather than counting once per group.
func TestSharedStatsEquivalence(t *testing.T) {
	cfg := Config{Method: AccuracyAnalytical, Seed: 3, MinProb: 0.05}
	shared := newTestEngine(t, cfg)
	qs := bindAll(t, shared, sharedWorkload)
	ref := newAloneRef(t, cfg, sharedWorkload)
	for i := 0; i < 20; i++ {
		ingestAlone(t, fmt.Sprintf("row@%d", i), shared, ref, []IngestRow{sharedRow(t, i)})
	}
	checkAloneStats(t, qs, ref)
}

// TestSharedGroupLifecycle walks registration, group accounting, EXPLAIN
// annotations, and unbind-driven teardown.
func TestSharedGroupLifecycle(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 1})
	qs := bindAll(t, e, sharedWorkload)

	// Expected classes: AVG/SUM/COUNT family at window 4 (one group of 6,
	// incl. MIN/MAX member), the filtered pair at window 3, and the
	// unshareable query outside any group.
	if g := e.Planner().Groups(); g != 2 {
		t.Fatalf("Groups() = %d, want 2", g)
	}
	if h, m := e.Planner().Hits(), e.Planner().Misses(); h != 7 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 7/2", h, m)
	}
	if ex := qs[0].Explain(); !strings.Contains(ex, "plan: shared state [stream=traffic rows=4 backend=analytical] — 7 sharer(s)") {
		t.Errorf("sharer Explain missing plan line:\n%s", ex)
	}
	if ex := qs[7].Explain(); !strings.Contains(ex, `filter="delay > 50"`) || !strings.Contains(ex, "2 sharer(s)") {
		t.Errorf("filtered sharer Explain missing filter key:\n%s", ex)
	}
	if ex := qs[9].Explain(); !strings.Contains(ex, "plan: per-query state — filter may consume per-query randomness") {
		t.Errorf("unshareable Explain missing reason:\n%s", ex)
	}

	// Members of one class run in one group; the unshareable query runs in
	// a private group the registry never sees.
	if qs[0].group != qs[1].group || qs[0].group != qs[6].group {
		t.Error("same-class members do not share one group")
	}
	if qs[0].group == qs[7].group || qs[0].group.win == qs[7].group.win {
		t.Error("different classes share one group")
	}
	if g := qs[9].group; g.registered || len(g.members) != 1 {
		t.Errorf("unshareable query: registered=%v members=%d, want a private group of one", g.registered, len(g.members))
	}

	// Unbinding all but one member keeps the (solo) group; the last
	// departure releases it.
	for i := 1; i <= 6; i++ {
		if !e.Unbind(fmt.Sprintf("q%03d", i)) {
			t.Fatalf("unbind q%03d failed", i)
		}
	}
	if g := e.Planner().Groups(); g != 2 {
		t.Fatalf("Groups() after partial unbind = %d, want 2", g)
	}
	if !e.Unbind("q000") {
		t.Fatal("unbind q000 failed")
	}
	if g := e.Planner().Groups(); g != 1 {
		t.Fatalf("Groups() after class teardown = %d, want 1", g)
	}
}

// TestSharedCacheInvalidation pins the emission-cache lifecycle invariant:
// within a batch every entry is consumed by every member (window-advance
// invalidation), so caches are empty at every batch boundary — the
// registration points where membership may change.
func TestSharedCacheInvalidation(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 2})
	qs := bindAll(t, e, sharedWorkload)
	for i := 0; i < 12; i += 4 {
		rows := make([]IngestRow, 4)
		for j := range rows {
			rows[j] = sharedRow(t, i+j)
		}
		if _, err := e.IngestBatch("traffic", rows, nil); err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			if len(q.group.cache) != 0 {
				t.Fatalf("after batch@%d query %d group cache holds %d entries, want 0",
					i, qi, len(q.group.cache))
			}
		}
	}
	// Lead/follow accounting: the 7-member group must have computed each
	// sequence once and replayed it 6 times.
	g := qs[0].group
	if !g.registered {
		t.Fatal("query 0 not shared")
	}
	leads, follows := g.leads.Load(), g.follows.Load()
	if leads != 12 || follows != 12*6 {
		t.Fatalf("leads=%d follows=%d, want 12/72", leads, follows)
	}
}

// TestSharedSketchEquivalence covers sketch-backend groups: identical
// aggregate signatures share one sketch ring and fully built emissions.
func TestSharedSketchEquivalence(t *testing.T) {
	stmts := []string{
		"SELECT COUNT(delay) AS c, AVG(delay) AS a FROM traffic WINDOW 64 ROWS BACKEND SKETCH",
		"SELECT COUNT(delay) AS c, AVG(delay) AS a FROM traffic WINDOW 64 ROWS BACKEND SKETCH",
		"SELECT COUNT(delay) AS c, AVG(delay) AS a FROM traffic WINDOW 64 ROWS BACKEND SKETCH",
		// Different signature: separate sketch group under a distinct key.
		"SELECT MIN(delay) AS lo FROM traffic WINDOW 64 ROWS BACKEND SKETCH",
	}
	cfg := Config{Method: AccuracyAnalytical, Seed: 9}
	shared := newTestEngine(t, cfg)
	qs := bindAll(t, shared, stmts)
	ref := newAloneRef(t, cfg, stmts)
	if qs[0].group.sk == nil || qs[0].group.sk != qs[2].group.sk {
		t.Fatal("sketch members do not alias one ring")
	}
	if qs[0].group.sk == qs[3].group.sk {
		t.Fatal("different sketch signatures share a ring")
	}
	for i := 0; i < 160; i += 8 {
		rows := make([]IngestRow, 8)
		for j := range rows {
			rows[j] = sharedRow(t, i+j)
		}
		ingestAlone(t, fmt.Sprintf("batch@%d", i), shared, ref, rows)
	}
	checkAloneStats(t, qs, ref)
}

// TestSharedUnbindMidStream detaches a sharer between batches and checks
// the survivors continue bit-identically to queries running alone.
func TestSharedUnbindMidStream(t *testing.T) {
	cfg := Config{Method: AccuracyAnalytical, Seed: 5}
	shared := newTestEngine(t, cfg)
	qs := bindAll(t, shared, sharedWorkload)
	ref := newAloneRef(t, cfg, sharedWorkload)
	for i := 0; i < 10; i++ {
		ingestAlone(t, fmt.Sprintf("pre@%d", i), shared, ref, []IngestRow{sharedRow(t, i)})
	}
	shared.Unbind(queryID(1))
	ref.unbind(1)
	for i := 10; i < 20; i++ {
		ingestAlone(t, fmt.Sprintf("post@%d", i), shared, ref, []IngestRow{sharedRow(t, i)})
	}
	checkAloneStats(t, qs, ref)
}

// TestSharedThousandQueries is the scale acceptance test: one thousand
// identical-window queries form a single shared-state group and stay
// byte-identical, sampled, to queries running alone.
func TestSharedThousandQueries(t *testing.T) {
	const nq = 1000
	stmts := make([]string, nq)
	for i := range stmts {
		stmts[i] = "SELECT AVG(delay) AS a FROM traffic WINDOW 8 ROWS"
	}
	cfg := Config{Method: AccuracyAnalytical, Seed: 21}
	shared := newTestEngine(t, cfg)
	qs := bindAll(t, shared, stmts)
	ref := newAloneRef(t, cfg, stmts, 0, nq/2, nq-1)
	if g := shared.Planner().Groups(); g != 1 {
		t.Fatalf("Groups() = %d, want 1", g)
	}
	// All-Gaussian rows keep every engine on the closed form (the Monte
	// Carlo fallback's equivalence is pinned by the smaller tests above).
	gaussianRow := func(i int) IngestRow {
		nd, err := dist.NewNormal(55+float64(i%9), 100)
		if err != nil {
			t.Fatal(err)
		}
		nd2, err := dist.NewNormal(40+float64(i%7), 100)
		if err != nil {
			t.Fatal(err)
		}
		return IngestRow{Fields: []randvar.Field{
			randvar.Det(float64(i % 3)), {Dist: nd, N: 10 + i%4}, {Dist: nd2, N: 12},
		}, Time: int64(i)}
	}
	for i := 0; i < 24; i += 8 {
		rows := make([]IngestRow, 8)
		for j := range rows {
			rows[j] = gaussianRow(i + j)
		}
		ingestAlone(t, fmt.Sprintf("batch@%d", i), shared, ref, rows)
	}
	checkAloneStats(t, qs, ref)
}

// TestExplainTiming smoke-tests the operator timing surface: enabling via
// the first call, per-stage counters accumulating on subsequent pushes.
func TestExplainTiming(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 4})
	qs := bindAll(t, e, []string{
		"SELECT AVG(delay) AS a FROM traffic WHERE delay > 40 WINDOW 2 ROWS",
		"SELECT AVG(delay) AS a FROM traffic WHERE delay > 40 WINDOW 2 ROWS",
	})
	first := qs[0].ExplainTiming()
	if !strings.Contains(first, "collection enabled") {
		t.Errorf("first ExplainTiming missing enablement note:\n%s", first)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.IngestBatch("traffic", []IngestRow{sharedRow(t, i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	out := qs[0].ExplainTiming()
	if strings.Contains(out, "collection enabled") {
		t.Errorf("second ExplainTiming repeats enablement note:\n%s", out)
	}
	for _, stage := range []string{"filter", "window", "aggregate", "accuracy"} {
		if !strings.Contains(out, "stage "+stage) {
			t.Errorf("ExplainTiming missing stage %s:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "shared group [stream=traffic rows=2 backend=analytical") {
		t.Errorf("ExplainTiming missing shared-group line:\n%s", out)
	}
	snap := qs[0].timing.Snapshot()
	if snap[0].Count == 0 {
		t.Error("filter stage never timed after enablement")
	}
}

// TestPrivateGroup pins what a query the registry never sees looks like: its
// group consumes no engine sequence number (only its evaluator does), EXPLAIN
// keeps the per-query and not-yet-bound verdicts, and EXPLAIN … TIMING prints
// no group line.
func TestPrivateGroup(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 4})
	seq := e.Seq()
	qs := compileAll(t, e, []string{
		"SELECT road_id, AVG(delay) AS a FROM traffic GROUP BY road_id WINDOW 3 ROWS",
		"SELECT AVG(delay) AS a FROM traffic WINDOW 3 SECONDS",
		"SELECT AVG(delay) AS a FROM traffic WINDOW 3 ROWS",
	})
	if got := e.Seq() - seq; got != uint64(len(qs)) {
		t.Fatalf("compiling %d queries consumed %d sequence numbers", len(qs), got)
	}
	for i, want := range []string{
		"  plan: per-query state — GROUP BY windows are per-key\n",
		"  plan: per-query state — time windows are per-query: the shared pipeline slides count windows only\n",
		"  plan: shareable [stream=traffic rows=3 backend=analytical] — not yet bound to a shared-state group\n",
	} {
		if ex := qs[i].Explain(); !strings.Contains(ex, want) {
			t.Errorf("query %d EXPLAIN lacks %q:\n%s", i, want, ex)
		}
	}
	for i, q := range qs {
		q.ExplainTiming()
		if err := e.Bind(queryID(i), q); err != nil {
			t.Fatal(err)
		}
	}
	if g := e.Planner().Groups(); g != 1 {
		t.Fatalf("Groups() = %d, want 1: only the ROWS query registers", g)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.IngestBatch("traffic", []IngestRow{sharedRow(t, i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range qs {
		if got, want := strings.Contains(q.ExplainTiming(), "shared group ["), i == 2; got != want {
			t.Errorf("query %d EXPLAIN TIMING group line = %v, want %v", i, got, want)
		}
	}
}
