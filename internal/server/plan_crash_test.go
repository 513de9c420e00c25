package server

// Planner durability tests: shared per-(stream, field, window) state must
// survive the crash path — checkpoint capture, WAL-suffix replay, shared-
// group re-admission at re-bind — byte-identically, and statements the
// planner rejects must be refused at REGISTER, before they reach the WAL.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

var planQueryCmds = []string{
	"QUERY p1 SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"QUERY p2 SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"QUERY p3 SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"QUERY p4 SELECT AVG(val) AS a FROM temps WINDOW 3 ROWS",
	"QUERY p5 SELECT MIN(val) AS lo, MAX(val) AS hi FROM temps WHERE val > 5 WINDOW 2 ROWS",
}

// runPlanReference executes the shared-state workload uninterrupted.
func runPlanReference(t *testing.T, workers, total int) (data []string, stats []string) {
	t.Helper()
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, workers, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	for _, q := range planQueryCmds {
		tc.mustOK(q)
	}
	for i := 0; i < total; i++ {
		data = append(data, tc.mustOK(crashInsertCmd(i))...)
	}
	for i := 1; i <= len(planQueryCmds); i++ {
		reply, _ := tc.cmd(fmt.Sprintf("STATS p%d", i))
		stats = append(stats, reply)
	}
	return data, stats
}

// TestCrashRecoverySharedState kills a server whose queries share planner
// state mid-stream — with the crash point landing between a checkpoint and
// the WAL tail, so recovery replays shared-cache invalidation through both
// layers — and demands the recovered server (at a different worker count)
// continues byte-identically and re-forms its shared groups.
func TestCrashRecoverySharedState(t *testing.T) {
	const phase1, total = 7, 16
	refData, refStats := runPlanReference(t, 1, total)

	dir := t.TempDir()
	// ckEvery 4: the crash at insert 7 leaves checkpoint state (through
	// insert 4) plus a live WAL suffix (5..7).
	s, addr := startDurableServer(t, durableConfig(dir, 2, 4))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	for _, q := range planQueryCmds {
		tc.mustOK(q)
	}
	for i := 0; i < phase1; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	crash(s)
	tc.c.Close()

	s2, addr2 := startDurableServer(t, durableConfig(dir, 4, 4))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	var gotData []string
	for i := 1; i <= len(planQueryCmds); i++ {
		tc2.mustOK(fmt.Sprintf("ATTACH p%d", i))
	}
	// Re-bound after recovery, the identical quartet must have re-merged
	// into one shared group via content-equality admission.
	reply, _ := tc2.cmd("EXPLAIN p1")
	if !strings.HasPrefix(reply, "OK") || !strings.Contains(reply, "4 sharer(s)") {
		t.Fatalf("recovered EXPLAIN p1 lost the shared group: %q", reply)
	}
	for i := phase1; i < total; i++ {
		gotData = append(gotData, tc2.mustOK(crashInsertCmd(i))...)
	}
	var gotStats []string
	for i := 1; i <= len(planQueryCmds); i++ {
		r, _ := tc2.cmd(fmt.Sprintf("STATS p%d", i))
		gotStats = append(gotStats, r)
	}

	if len(gotData) == 0 || len(gotData) > len(refData) {
		t.Fatalf("recovered run emitted %d DATA lines, reference %d", len(gotData), len(refData))
	}
	tail := refData[len(refData)-len(gotData):]
	for i := range gotData {
		if gotData[i] != tail[i] {
			t.Fatalf("DATA line %d diverged after recovery:\nreference: %s\nrecovered: %s",
				i, tail[i], gotData[i])
		}
	}
	for i := range refStats {
		if gotStats[i] != refStats[i] {
			t.Fatalf("STATS p%d diverged: reference %q, recovered %q", i+1, refStats[i], gotStats[i])
		}
	}
}

// TestRejectedStatementNeverJournaled is the regression test for the
// validation-seam bugfix: a statement that fails plan-time validation is
// refused at REGISTER — it must not reach the WAL, and recovery from the
// directory it would have polluted must succeed without it.
func TestRejectedStatementNeverJournaled(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	rejected := []string{
		// Deterministic column under a significance test: previously
		// accepted, journaled, and then failing on every tuple.
		"QUERY bad1 SELECT val FROM temps WHERE MTEST(key, '>', 1, 0.05)",
		"QUERY bad2 SELECT val FROM temps WHERE PTEST(key > 1, 0.5, 0.05)",
		"QUERY bad3 SELECT key, AVG(val) FROM temps GROUP BY key WINDOW 64 ROWS BACKEND SKETCH",
	}
	for _, cmd := range rejected {
		if reply, _ := tc.cmd(cmd); !strings.HasPrefix(reply, "ERR") {
			t.Fatalf("%q: got %q, want ERR at REGISTER", cmd, reply)
		}
	}
	tc.mustOK(crashQueryCmd) // q1, the healthy control
	for i := 0; i < 5; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	crash(s)
	tc.c.Close()

	// Recovery replays the WAL; a journaled-but-invalid statement would
	// fail the boot. The healthy query must be back, the rejected ones
	// absent.
	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	tc2.mustOK("ATTACH q1")
	tc2.mustOK("EXPLAIN q1")
	for _, id := range []string{"bad1", "bad2", "bad3"} {
		if reply, _ := tc2.cmd("EXPLAIN " + id); !strings.HasPrefix(reply, "ERR") {
			t.Fatalf("rejected statement %s resurfaced after recovery: %q", id, reply)
		}
	}
	tc2.mustOK(crashInsertCmd(5))
}

// TestDaemonRejectsTimeWindow: the line protocol carries no event times, so
// a WINDOW n SECONDS query registered over it would never evict and grow
// without bound. QUERY refuses it before compiling — a compiled-then-rejected
// statement would consume an engine sequence number that WAL replay never
// sees — while the replay path still takes it, so older WALs recover.
func TestDaemonRejectsTimeWindow(t *testing.T) {
	s, addr := startDurableServer(t, durableConfig(t.TempDir(), 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	seq, lsn := s.engine.Seq(), s.WAL().LastLSN()
	for _, cmd := range []string{
		"QUERY t1 SELECT AVG(val) AS a FROM temps WINDOW 5 SECONDS",
		"QUERY t2 SELECT key, COUNT(val) AS c FROM temps GROUP BY key WINDOW 60 SECONDS",
	} {
		if reply, _ := tc.cmd(cmd); !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "SECONDS") {
			t.Fatalf("%q: got %q, want ERR naming SECONDS", cmd, reply)
		}
	}
	if got := s.engine.Seq(); got != seq {
		t.Errorf("engine seq %d after rejected QUERY, want %d", got, seq)
	}
	if got := s.WAL().LastLSN(); got != lsn {
		t.Errorf("wal lsn %d after rejected QUERY, want %d: the statement was journaled", got, lsn)
	}
	tc.mustOK(crashQueryCmd)

	release := s.engine.Exclusive()
	s.mu.Lock()
	err := s.applyQueryLocked("t3", "SELECT AVG(val) AS a FROM temps WINDOW 5 SECONDS", nil)
	s.mu.Unlock()
	release()
	if err != nil {
		t.Fatalf("replay path refused a journaled SECONDS query: %v", err)
	}
}

// TestDaemonRejectsHugeWindow: a materialized WINDOW n ROWS allocates its n
// slots at compile, so QUERY refuses n above core.MaxWindowRows before
// compiling or journaling, with the window never allocated. The bound
// itself and a sketch window, which does not grow with n, are accepted.
func TestDaemonRejectsHugeWindow(t *testing.T) {
	s, addr := startDurableServer(t, durableConfig(t.TempDir(), 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	tc.mustOK("STREAM temps2 key val:dist")
	seq, lsn := s.engine.Seq(), s.WAL().LastLSN()
	over := core.MaxWindowRows + 1
	for _, cmd := range []string{
		fmt.Sprintf("QUERY w1 SELECT AVG(val) AS a FROM temps WINDOW %d ROWS", over),
		fmt.Sprintf("QUERY w2 SELECT key, AVG(val) AS a FROM temps GROUP BY key WINDOW %d ROWS", over),
		fmt.Sprintf("QUERY w3 SELECT temps.val FROM temps JOIN temps2 ON key = key WINDOW %d ROWS", over),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply, _ := tc.cmd(cmd)
		runtime.ReadMemStats(&after)
		if !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "ROWS") {
			t.Fatalf("%q: got %q, want ERR naming ROWS", cmd, reply)
		}
		// A window of over rows takes over·(32 + 25 per column) bytes.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(over)*8 {
			t.Errorf("%q allocated %d bytes before its refusal", cmd, grew)
		}
	}
	if got := s.engine.Seq(); got != seq {
		t.Errorf("engine seq %d after rejected QUERY, want %d", got, seq)
	}
	if got := s.WAL().LastLSN(); got != lsn {
		t.Errorf("wal lsn %d after rejected QUERY, want %d: the statement was journaled", got, lsn)
	}
	tc.mustOK(fmt.Sprintf("QUERY w4 SELECT AVG(val) AS a FROM temps WINDOW %d ROWS", core.MaxWindowRows))
	tc.mustOK("QUERY w5 SELECT AVG(val) AS a FROM temps WINDOW 2000000000 ROWS BACKEND SKETCH")
}
