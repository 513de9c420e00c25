package core

import (
	"strings"
	"testing"
)

// TestPlanTimeRejections is the audit of plan-vs-emission validation
// seams: every statement here used to (or would) fail deterministically on
// the first qualifying tuple, after the statement had been accepted — and
// with a durable server, WAL-journaled. All of them must now fail at
// compile (REGISTER) time, before any durability side effect.
func TestPlanTimeRejections(t *testing.T) {
	cases := []struct {
		name    string
		sql     string
		wantErr string
	}{
		{
			"mtest det column",
			"SELECT delay FROM traffic WHERE MTEST(road_id, '>', 1, 0.05)",
			`"road_id" is deterministic`,
		},
		{
			"mdtest det column x",
			"SELECT delay FROM traffic WHERE MDTEST(road_id, delay, '>', 0, 0.05)",
			"MDTEST field X must be a probabilistic column",
		},
		{
			"mdtest det column y",
			"SELECT delay FROM traffic WHERE MDTEST(delay, road_id, '>', 0, 0.05)",
			"MDTEST field Y must be a probabilistic column",
		},
		{
			"kstest det column",
			"SELECT delay FROM traffic WHERE KSTEST(delay, road_id, 0.05)",
			"KSTEST field Y must be a probabilistic column",
		},
		{
			"kstest coupled det column",
			"SELECT delay FROM traffic WHERE KSTEST(road_id, delay, 2, 0.05, 0.1)",
			"KSTEST field X must be a probabilistic column",
		},
		{
			"ptest det predicate",
			"SELECT delay FROM traffic WHERE PTEST(road_id > 1, 0.5, 0.05)",
			"references no probabilistic column",
		},
		{
			"ptest over prob threshold",
			"SELECT delay FROM traffic WHERE PTEST(PROB(delay > 50) >= 0.5, 0.5, 0.05)",
			"carries no sample size",
		},
		{
			"sketch group by",
			"SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id WINDOW 64 ROWS BACKEND SKETCH",
			"does not support GROUP BY",
		},
		{
			"sketch time window",
			"SELECT AVG(delay) FROM traffic WINDOW 10 SECONDS BACKEND SKETCH",
			"requires a count window",
		},
		{
			"bare prob predicate",
			"SELECT delay FROM traffic WHERE PROB(delay > 5)",
			"must be compared against a threshold",
		},
	}
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 1})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := e.Compile(c.sql)
			if err == nil {
				t.Fatalf("%q compiled, want plan-time rejection", c.sql)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("%q: error %q, want substring %q", c.sql, err, c.wantErr)
			}
		})
	}
}

// TestSigPredicateAcceptsProbColumns is the positive control: the same
// predicate shapes over probabilistic columns still compile.
func TestSigPredicateAcceptsProbColumns(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 1})
	for _, s := range []string{
		"SELECT delay FROM traffic WHERE MTEST(delay, '>', 1, 0.05)",
		"SELECT delay FROM traffic WHERE MDTEST(delay, delay2, '>', 0, 0.05)",
		"SELECT delay FROM traffic WHERE KSTEST(delay, delay2, 0.05)",
		"SELECT delay FROM traffic WHERE PTEST(delay > 50, 0.5, 0.05)",
		// A mixed-column expression references at least one probabilistic
		// column, so a sample size is available.
		"SELECT delay FROM traffic WHERE PTEST(delay > road_id, 0.5, 0.05)",
	} {
		if _, err := e.Compile(s); err != nil {
			t.Errorf("%q: %v, want accepted", s, err)
		}
	}
}

// TestJoinDefaultWindowRoundTrip pins the fix for the silent 128-row join
// window: omitting WINDOW now normalizes the statement itself, so the
// default is visible in EXPLAIN, survives String() round trips, and
// re-registers identically from a journaled statement.
func TestJoinDefaultWindowRoundTrip(t *testing.T) {
	e := joinEngine(t)
	q, err := e.Compile("SELECT roads.delay FROM roads JOIN weather ON roads.rid = weather.rid")
	if err != nil {
		t.Fatal(err)
	}
	printed := q.String()
	if !strings.Contains(printed, "WINDOW 128 ROWS") {
		t.Fatalf("q.String() = %q, want explicit WINDOW 128 ROWS", printed)
	}
	if ex := q.Explain(); !strings.Contains(ex, "window 128 rows per side") {
		t.Fatalf("Explain missing effective join window:\n%s", ex)
	}
	// The printed statement must re-compile to the identical plan — this
	// is the WAL/checkpoint round trip in miniature.
	q2, err := e.Compile(printed)
	if err != nil {
		t.Fatalf("re-compile %q: %v", printed, err)
	}
	if q2.String() != printed {
		t.Fatalf("round trip changed statement: %q -> %q", printed, q2.String())
	}
	if q2.stmt.Window.Rows != 128 || q.stmt.Window.Rows != 128 {
		t.Fatalf("effective windows: %d and %d, want 128", q.stmt.Window.Rows, q2.stmt.Window.Rows)
	}
	// An explicit window is untouched.
	q3, err := e.Compile("SELECT roads.delay FROM roads JOIN weather ON roads.rid = weather.rid WINDOW 16 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	if q3.stmt.Window.Rows != 16 || !strings.Contains(q3.String(), "WINDOW 16 ROWS") {
		t.Fatalf("explicit join window mangled: rows %d, sql %q", q3.stmt.Window.Rows, q3.String())
	}
}
