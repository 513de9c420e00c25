package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/randvar"
	"repro/internal/stream"
)

func testRow(t *testing.T, mu float64, n int) IngestRow {
	t.Helper()
	row, err := raceRow(1, mu, n)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func TestIngestBatchBasics(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.IngestBatch("traffic", nil, nil); err == nil {
		t.Error("empty batch: want error")
	}
	if _, err := e.IngestBatch("nosuch", []IngestRow{testRow(t, 20, 30)}, nil); err == nil {
		t.Error("unknown stream: want error")
	}
	// A malformed row (arity mismatch) aborts before sequencing.
	seq0 := e.Seq()
	bad := IngestRow{Fields: []randvar.Field{randvar.Det(1)}}
	if _, err := e.IngestBatch("traffic", []IngestRow{testRow(t, 20, 30), bad}, nil); err == nil {
		t.Error("malformed row: want error")
	}
	if e.Seq() != seq0 {
		t.Errorf("failed batch consumed sequence numbers: %d -> %d", seq0, e.Seq())
	}
}

// TestIngestBatchSampleSizeBound: a live batch — one with a commit hook —
// may carry a sample size up to MaxSampleSize; one above it aborts the whole
// batch before the hook runs or a sequence number is taken. A batch applied
// from a journal, without a hook, is taken as it was journaled.
func TestIngestBatchSampleSizeBound(t *testing.T) {
	e := newTestEngine(t, Config{})
	commit := func() error { return nil }
	if _, err := e.IngestBatch("traffic", []IngestRow{testRow(t, 20, MaxSampleSize)}, commit); err != nil {
		t.Fatalf("sample size at the bound: %v", err)
	}
	seq0 := e.Seq()
	committed := false
	_, err := e.IngestBatch("traffic", []IngestRow{testRow(t, 20, 30), testRow(t, 20, MaxSampleSize+1)},
		func() error { committed = true; return nil })
	if err == nil || !strings.Contains(err.Error(), "sample size") {
		t.Fatalf("sample size above the bound: err = %v", err)
	}
	if committed || e.Seq() != seq0 {
		t.Errorf("refused batch committed (%v) or consumed sequence numbers: %d -> %d", committed, seq0, e.Seq())
	}
	if _, err := e.IngestBatch("traffic", []IngestRow{testRow(t, 20, MaxSampleSize+1)}, nil); err != nil {
		t.Fatalf("journaled row above the bound: %v", err)
	}
	if e.Seq() != seq0+1 {
		t.Errorf("journaled row took seq %d, want %d", e.Seq(), seq0+1)
	}
}

// TestIngestBatchCommitAbort: a commit-hook error must leave the engine
// untouched — no sequence numbers consumed, no query pushed.
func TestIngestBatchCommitAbort(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("q", q); err != nil {
		t.Fatal(err)
	}
	seq0 := e.Seq()
	boom := errors.New("journal down")
	_, err = e.IngestBatch("traffic", []IngestRow{testRow(t, 20, 30)}, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the commit error", err)
	}
	if e.Seq() != seq0 {
		t.Errorf("aborted batch consumed sequence numbers: %d -> %d", seq0, e.Seq())
	}
	if st := q.Stats(); st.In != 0 {
		t.Errorf("aborted batch pushed %d tuples", st.In)
	}
}

// TestIngestBatchRouting: results come back keyed and sorted by query id,
// only for queries bound to the target stream, and Unbind stops routing.
func TestIngestBatchRouting(t *testing.T) {
	e := newTestEngine(t, Config{})
	other, err := stream.NewSchema("other", stream.Column{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream(other); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "a"} { // bind out of order; results must sort
		q, err := e.Compile("SELECT road_id FROM traffic")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Bind(id, q); err != nil {
			t.Fatal(err)
		}
	}
	qo, err := e.Compile("SELECT x FROM other")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("zother", qo); err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("a", qo); err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Errorf("duplicate bind: got %v", err)
	}

	results, err := e.IngestBatch("traffic", []IngestRow{testRow(t, 20, 30), testRow(t, 25, 30)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID != "a" || results[1].ID != "b" {
		t.Fatalf("results = %+v, want queries [a b]", results)
	}
	for _, qr := range results {
		if qr.Err != nil || len(qr.Results) != 2 {
			t.Fatalf("query %s: err=%v results=%d, want 2 clean results", qr.ID, qr.Err, len(qr.Results))
		}
	}
	// Tuples in one batch get consecutive sequence numbers, and each query
	// sees them in arrival order.
	if s0, s1 := results[0].Results[0].Tuple.Seq, results[0].Results[1].Tuple.Seq; s1 != s0+1 {
		t.Errorf("batch seqs = %d,%d, want consecutive", s0, s1)
	}
	if st := e.Bound("zother").Stats(); st.In != 0 {
		t.Errorf("other-stream query saw %d tuples, want 0", st.In)
	}

	if !e.Unbind("b") || e.Unbind("b") {
		t.Error("Unbind: want true then false")
	}
	results, err = e.IngestBatch("traffic", []IngestRow{testRow(t, 30, 30)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "a" {
		t.Fatalf("after Unbind results = %+v, want only [a]", results)
	}
}

// TestIngestBatchSequencing: a batch consumes exactly one sequence number
// per row, and the commit hook runs exactly once per batch (the
// durability layer relies on both).
func TestIngestBatchSequencing(t *testing.T) {
	e := newTestEngine(t, Config{})
	seq0 := e.Seq()
	commits := 0
	rows := []IngestRow{testRow(t, 20, 30), testRow(t, 21, 30), testRow(t, 22, 30)}
	if _, err := e.IngestBatch("traffic", rows, func() error {
		commits++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Errorf("commit hook ran %d times, want 1", commits)
	}
	if got := e.Seq(); got != seq0+uint64(len(rows)) {
		t.Errorf("seq after batch = %d, want %d + %d rows", got, seq0, len(rows))
	}
}

// TestPushRejectsBoundQuery: every member of a plan group must see the same
// tuple sequence, so a bound query takes tuples only through IngestBatch. A
// direct Push used to slip tuples into the shared window behind the other
// members' backs: the group cache filled with entries no member would
// consume, and the other member's next emission averaged tuples it never
// received.
func TestPushRejectsBoundQuery(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 1})
	stmt := "SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS"
	qs := bindAll(t, e, []string{stmt, stmt})
	for i := 0; i < 1000; i++ {
		if _, err := qs[0].Push(trafficTuple(t, e, 1, float64(i), 10, 0, 10)); err == nil {
			t.Fatalf("push %d into a bound query: want error", i)
		}
	}
	// Neither member has seen a tuple, so the window fills on the fourth.
	for i := 0; i < 4; i++ {
		out, err := e.IngestBatch("traffic", []IngestRow{sharedRow(t, i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range out {
			if want := i / 3; qr.Err != nil || len(qr.Results) != want {
				t.Fatalf("row %d: %s emitted %d results (err %v), want %d", i, qr.ID, len(qr.Results), qr.Err, want)
			}
		}
	}
	// Unbound, the query takes direct pushes again.
	e.Unbind("q000")
	if _, err := qs[0].Push(trafficTuple(t, e, 1, 50, 10, 0, 10)); err != nil {
		t.Fatalf("push into an unbound query: %v", err)
	}
}
