package checkpoint

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
)

// sharedDefs is a planner workload: three identical queries (one shared
// group), plus a distinct class over the same stream.
var sharedDefs = []string{
	"SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"SELECT MIN(val) AS lo, COUNT(key) AS c FROM temps WINDOW 4 ROWS",
}

func bindShared(t *testing.T, eng *core.Engine) []QueryDef {
	t.Helper()
	defs := make([]QueryDef, len(sharedDefs))
	for i, s := range sharedDefs {
		q, err := eng.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("q%d", i)
		if err := eng.Bind(id, q); err != nil {
			t.Fatal(err)
		}
		defs[i] = QueryDef{ID: id, SQL: q.String(), Query: q}
	}
	return defs
}

func ingestTemps(t *testing.T, eng *core.Engine, i int) []core.QueryResults {
	t.Helper()
	nd, err := dist.NewNormal(10+float64(i%13), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	rows := []core.IngestRow{{Fields: []randvar.Field{randvar.Det(float64(i)), {Dist: nd, N: 20 + i%5}}, Time: int64(i)}}
	out, err := eng.IngestBatch("temps", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func batchFingerprint(out []core.QueryResults) string {
	var b strings.Builder
	for _, qr := range out {
		fmt.Fprintf(&b, "%s: %s", qr.ID, fingerprint(qr.Results))
		if qr.Err != nil {
			fmt.Fprintf(&b, " err=%v", qr.Err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSharedStateCheckpointRoundTrip checkpoints an engine whose queries
// share planner state mid-stream, restores it, re-binds, and demands (a)
// the restored queries re-merge into their shared groups via
// content-equality admission, and (b) subsequent ingest is bit-identical
// to the uninterrupted engine. Shared window state rides the existing
// per-query snapshot format — each member checkpoints the (identical)
// shared contents — so no format change and no cross-version risk.
func TestSharedStateCheckpointRoundTrip(t *testing.T) {
	engA := newEngine(t)
	defsA := bindShared(t, engA)
	// Mid-window capture point: 5 rows leaves the 3-row windows full and
	// the 4-row window mid-fill.
	for i := 0; i < 5; i++ {
		ingestTemps(t, engA, i)
	}

	snap, err := Capture(engA, 99, defsA)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(engB, snap2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(restored) != len(defsA) {
		t.Fatalf("restored %d queries, want %d", len(restored), len(defsA))
	}
	for _, rq := range restored {
		if err := engB.Bind(rq.ID, rq.Query); err != nil {
			t.Fatalf("bind %s: %v", rq.ID, err)
		}
	}

	// Content-equality admission must have re-merged the identical trio
	// into one group (and left the second class alone).
	if g, _, _ := engB.SharedGroups(); g != 2 {
		t.Fatalf("restored Groups() = %d, want 2", g)
	}
	if ex := restored[0].Query.Explain(); !strings.Contains(ex, "3 sharer(s)") {
		t.Fatalf("restored query did not re-merge:\n%s", ex)
	}
	if exA, exB := defsA[0].Query.Explain(), restored[0].Query.Explain(); exA != exB {
		t.Fatalf("EXPLAIN diverged across recovery:\n original: %s\n restored: %s", exA, exB)
	}

	// Both engines now consume the identical suffix bit-identically.
	for i := 5; i < 16; i++ {
		fa := batchFingerprint(ingestTemps(t, engA, i))
		fb := batchFingerprint(ingestTemps(t, engB, i))
		if fa != fb {
			t.Fatalf("ingest %d diverged after restore:\n original: %s\n restored: %s", i, fa, fb)
		}
	}
	for i, d := range defsA {
		if sa, sb := d.Query.Stats(), restored[i].Query.Stats(); sa != sb {
			t.Fatalf("query %s stats diverged: %+v vs %+v", d.ID, sa, sb)
		}
	}
}

// TestSharedStateRestoreDivergedWindows pins the admission rule itself: a
// restored query whose window contents differ from a live group's must NOT
// merge (it forks a second group under the same key), because merging
// would alias windows holding different history.
func TestSharedStateRestoreDivergedWindows(t *testing.T) {
	engA := newEngine(t)
	qa, err := engA.Compile(sharedDefs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Bind("qa", qa); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ingestTemps(t, engA, i)
	}
	snap, err := Capture(engA, 1, []QueryDef{{ID: "qa", SQL: qa.String(), Query: qa}})
	if err != nil {
		t.Fatal(err)
	}

	// Advance the live engine past the capture point, then restore the
	// stale snapshot into the same engine's registry world: bind a fresh
	// query first (empty window), then the restored one (4 rows behind).
	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(engB, snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := engB.Compile(sharedDefs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := engB.Bind("fresh", fresh); err != nil {
		t.Fatal(err)
	}
	if err := engB.Bind("qa", restored[0].Query); err != nil {
		t.Fatal(err)
	}
	// Same key, different contents: two groups.
	if g, _, _ := engB.SharedGroups(); g != 2 {
		t.Fatalf("Groups() = %d, want 2 (diverged windows must not merge)", g)
	}
}

// TestPlanGroupRestore covers the window states a plan group owns beyond the
// shared count window: a sketch ring shared by two queries and the per-key
// windows of a GROUP BY query's private group. Every query's group exists
// from compile on, before Restore writes its state, so the restored state
// must land in the group — a copy the group never sees would leave it
// pushing the empty windows it was compiled with.
func TestPlanGroupRestore(t *testing.T) {
	stmts := []string{
		"SELECT AVG(val) AS a, COUNT(key) AS c FROM temps WINDOW 6 ROWS BACKEND SKETCH",
		"SELECT AVG(val) AS a, COUNT(key) AS c FROM temps WINDOW 6 ROWS BACKEND SKETCH",
		"SELECT key, AVG(val) AS a FROM temps GROUP BY key WINDOW 2 ROWS",
	}
	bind := func(eng *core.Engine, qs []*core.Query) []QueryDef {
		defs := make([]QueryDef, len(qs))
		for i, q := range qs {
			id := fmt.Sprintf("q%d", i)
			if err := eng.Bind(id, q); err != nil {
				t.Fatal(err)
			}
			defs[i] = QueryDef{ID: id, SQL: q.String(), Query: q}
		}
		return defs
	}
	engA := newEngine(t)
	qs := make([]*core.Query, len(stmts))
	for i, s := range stmts {
		q, err := engA.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	defsA := bind(engA, qs)
	// Keys repeat every third row, so each GROUP BY window holds history.
	ingest := func(eng *core.Engine, i int) string {
		nd, err := dist.NewNormal(10+float64(i%13), 2.5)
		if err != nil {
			t.Fatal(err)
		}
		rows := []core.IngestRow{{Fields: []randvar.Field{randvar.Det(float64(i % 3)), {Dist: nd, N: 20 + i%5}}, Time: int64(i)}}
		out, err := eng.IngestBatch("temps", rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		return batchFingerprint(out)
	}
	for i := 0; i < 10; i++ {
		ingest(engA, i)
	}
	snap, err := Capture(engA, 10, defsA)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(engB, snap)
	if err != nil {
		t.Fatal(err)
	}
	qsB := make([]*core.Query, len(restored))
	for i, rq := range restored {
		qsB[i] = rq.Query
	}
	bind(engB, qsB)
	if g, _, _ := engB.SharedGroups(); g != 1 {
		t.Fatalf("restored Groups() = %d, want 1: the sketch pair shares, GROUP BY is private", g)
	}
	for i, want := range []string{"2 sharer(s)", "2 sharer(s)", "per-query state — GROUP BY windows are per-key"} {
		if ex := qsB[i].Explain(); !strings.Contains(ex, want) {
			t.Fatalf("restored query %d EXPLAIN lacks %q:\n%s", i, want, ex)
		}
	}
	for i := 10; i < 30; i++ {
		if fa, fb := ingest(engA, i), ingest(engB, i); fa != fb {
			t.Fatalf("ingest %d diverged after restore:\n original: %s\n restored: %s", i, fa, fb)
		}
	}
	for i, q := range qs {
		if sa, sb := q.Stats(), qsB[i].Stats(); sa != sb {
			t.Fatalf("query %d stats diverged: %+v vs %+v", i, sa, sb)
		}
	}
}
