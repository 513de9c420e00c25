package server

// Chaos suite (ISSUE 5): seeded deterministic fault schedules replayed
// against the full durable server. Each schedule is a pure function of its
// seed and the operation sequence (internal/fault counts calls, never
// clocks), so a failing seed is a reproducible bug report. The invariants:
//
//  1. Clean failures: an injected WAL fsync/ENOSPC fault surfaces as an ERR
//     reply; the connection and the rest of the server keep working.
//  2. No acknowledged-then-lost writes: every insert the client saw "OK"
//     for is present after crash recovery.
//  3. Bit-identical recovery: recovering the same damaged directory twice
//     yields identical stats and identical post-recovery DATA streams.
//  4. Exactly-once retries: an INSERTBATCH whose reply is torn off the
//     wire, retried with the same request id — including across a crash —
//     applies once.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/randvar"
)

// batchRows builds rows for the temps stream (key val:dist) matching the
// crashInsertCmd value pattern.
func batchRows(t *testing.T, n int) [][]randvar.Field {
	t.Helper()
	rows := make([][]randvar.Field, n)
	for i := range rows {
		f, err := ParseFieldSpec(fmt.Sprintf("N(%d.5,2.25,%d)", 10+i, 20+i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = []randvar.Field{randvar.Det(float64(i)), f}
	}
	return rows
}

func startDurableServerFS(t testing.TB, cfg core.Config, fs fault.FS) (*Server, string) {
	t.Helper()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurableFS(eng, nil, fs)
	if err != nil {
		t.Fatalf("NewDurableFS: %v", err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	return s, addr.String()
}

// copyDir clones a data directory so one damaged state can be recovered
// twice (replay mutates the directory: truncated tails, new checkpoints).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy data dir: %v", err)
	}
	return dst
}

// scheduleFromSeed derives a deterministic fault schedule: one WAL-append
// fault (fsync failure or full disk, possibly torn) somewhere in the middle
// of the run. The After offsets skip the ops that set up stream and query.
func scheduleFromSeed(seed uint64) []fault.Rule {
	rng := seed
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	ops := []fault.Op{fault.OpSync, fault.OpWrite}
	errs := []error{fault.ErrFsync, fault.ErrNoSpace}
	r := fault.Rule{
		Op:    ops[next(2)],
		Path:  ".wal",
		After: int(4 + next(10)),
		Count: 1,
		Err:   errs[next(2)],
	}
	if r.Op == fault.OpWrite {
		r.Torn = next(2) == 0
	}
	return []fault.Rule{r}
}

func statsIn(t *testing.T, reply string) uint64 {
	t.Helper()
	payload, ok := strings.CutPrefix(reply, "OK ")
	if !ok {
		t.Fatalf("stats reply %q", reply)
	}
	var st core.QueryStats
	if err := json.Unmarshal([]byte(payload), &st); err != nil {
		t.Fatalf("stats %q: %v", reply, err)
	}
	return st.In
}

// recoverAndContinue recovers a copied data directory, re-attaches, runs
// extra inserts, and returns the stats reply plus the post-recovery DATA
// lines.
func recoverAndContinue(t *testing.T, dir string, from, total int) (string, []string) {
	t.Helper()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK("ATTACH q1")
	var data []string
	for i := from; i < total; i++ {
		data = append(data, tc.mustOK(crashInsertCmd(i))...)
	}
	reply, _ := tc.cmd("STATS q1")
	return reply, data
}

// TestChaosSeededScheduleRecovery drives the full server through seeded WAL
// fault schedules and asserts the chaos invariants above.
func TestChaosSeededScheduleRecovery(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const total = 16
			dir := t.TempDir()
			ifs := fault.NewInjectFS(nil, scheduleFromSeed(seed)...)
			s, addr := startDurableServerFS(t, durableConfig(dir, 1, 1024), ifs)
			tc := dialServer(t, addr)
			tc.mustOK(crashStreamCmd)
			tc.mustOK(crashQueryCmd)
			acked := 0
			sawErr := false
			for i := 0; i < total; i++ {
				reply, _ := tc.cmd(crashInsertCmd(i))
				switch {
				case strings.HasPrefix(reply, "OK"):
					acked++
				case strings.HasPrefix(reply, "ERR"):
					// Invariant 1: a clean error line, connection intact.
					sawErr = true
				default:
					t.Fatalf("insert %d: unparseable reply %q", i, reply)
				}
			}
			if !sawErr {
				t.Fatalf("seed %d never fired (injected=%d); schedule too late", seed, ifs.Injected())
			}
			if _, data := tc.cmd("PING"); len(data) != 0 {
				t.Fatal("PING delivered DATA")
			}
			crash(s)
			tc.c.Close()

			// Invariant 3: two recoveries of the same directory agree.
			dirA, dirB := copyDir(t, dir), copyDir(t, dir)
			statsA, dataA := recoverAndContinue(t, dirA, total, total+4)
			statsB, dataB := recoverAndContinue(t, dirB, total, total+4)
			if statsA != statsB {
				t.Fatalf("recovery diverged:\n A: %s\n B: %s", statsA, statsB)
			}
			if len(dataA) != len(dataB) {
				t.Fatalf("post-recovery DATA count diverged: %d vs %d", len(dataA), len(dataB))
			}
			for i := range dataA {
				if dataA[i] != dataB[i] {
					t.Fatalf("post-recovery DATA %d diverged:\n A: %s\n B: %s", i, dataA[i], dataB[i])
				}
			}

			// Invariant 2: nothing acknowledged was lost. Recovered In covers
			// the acked inserts plus the 4 post-recovery ones; an unacked
			// insert may additionally have survived (flushed frame whose
			// fsync failed), but never the other way around.
			in := statsIn(t, statsA)
			if in < uint64(acked+4) {
				t.Fatalf("acknowledged-then-lost: recovered In=%d < acked %d + 4 continued", in, acked)
			}
			if in > uint64(total+4) {
				t.Fatalf("recovered In=%d exceeds all %d inserts", in, total+4)
			}
		})
	}
}

// TestChaosWALFsyncFailureWedges pins the exact failure mode down: the
// fsync under insert 3 fails, that insert gets a clean ERR, every later
// insert reports the wedged log, PING still works, and after restart the
// server recovers the pre-fault prefix and serves writes again.
func TestChaosWALFsyncFailureWedges(t *testing.T) {
	dir := t.TempDir()
	// STREAM and QUERY each sync once under fsync=always; the rule skips
	// them plus the first two inserts, so insert index 2 hits the fault.
	ifs := fault.NewInjectFS(nil, fault.Rule{
		Op: fault.OpSync, Path: ".wal", After: 4, Count: 1, Err: fault.ErrFsync,
	})
	s, addr := startDurableServerFS(t, durableConfig(dir, 1, 1024), ifs)
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	tc.mustOK(crashInsertCmd(0))
	tc.mustOK(crashInsertCmd(1))
	reply, _ := tc.cmd(crashInsertCmd(2))
	if !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "wal") {
		t.Fatalf("insert under failed fsync: got %q, want a wal ERR", reply)
	}
	reply, _ = tc.cmd(crashInsertCmd(3))
	if !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "wedged") {
		t.Fatalf("insert after failed fsync: got %q, want wedged ERR", reply)
	}
	tc.mustOK("PING")
	crash(s)
	tc.c.Close()

	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	tc2.mustOK("ATTACH q1")
	reply, _ = tc2.cmd("STATS q1")
	// Inserts 0 and 1 were acked; insert 2 was flushed before its fsync
	// failed, so it may or may not have survived.
	if in := statsIn(t, reply); in < 2 || in > 3 {
		t.Fatalf("recovered In=%d, want 2 or 3", in)
	}
	tc2.mustOK(crashInsertCmd(4))
}

// TestChaosRetriedBatchExactlyOnce tears the INSERTBATCH reply off the wire
// mid-line; the client's retry (same request id, fresh connection) is
// answered from the dedup window and the batch applies exactly once.
func TestChaosRetriedBatchExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s.Close()

	// The observer owns the query on a clean connection, so the faulty
	// client's drop cannot unregister it.
	obs := dialServer(t, addr)
	defer obs.c.Close()
	obs.mustOK(crashStreamCmd)
	obs.mustOK(crashQueryCmd)

	// Proxy: the first connection dies 5 reply-bytes in (mid-line tear of
	// the batch reply, after the server applied); later connections are
	// clean.
	proxy, err := fault.NewProxy(addr, func(i int) fault.ConnFaults {
		if i == 0 {
			return fault.ConnFaults{DropAfterReadBytes: 5}
		}
		return fault.ConnFaults{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	hitsBefore := mDedupHits.Value()
	cl, err := DialOpts(proxy.Addr(), DialOptions{
		Retries:   3,
		RetryBase: 5 * time.Millisecond,
		OpTimeout: 2 * time.Second,
		Seed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	results, err := cl.InsertBatch("temps", batchRows(t, 3)...)
	if err != nil {
		t.Fatalf("retried batch: %v", err)
	}
	if results != 1 {
		t.Fatalf("retried batch results=%d, want 1 (window 3 over 3 rows)", results)
	}
	if got := mDedupHits.Value() - hitsBefore; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
	reply, _ := obs.cmd("STATS q1")
	if in := statsIn(t, reply); in != 3 {
		t.Fatalf("batch applied In=%d, want exactly 3", in)
	}
}

// TestChaosRetryAcrossCrashExactlyOnce re-sends an acked INSERTBATCH with
// its original request id after a crash: replay rebuilt the dedup window
// from the journaled payload, so the retry answers from it bit-identically
// instead of double-applying.
func TestChaosRetryAcrossCrashExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	batchCmd := "INSERTBATCH temps 0 N(10.5,2.25,20) | 1 N(11.5,2.25,21) | 2 N(12.5,2.25,22) @rid-1"
	reply1, _ := tc.cmd(batchCmd)
	if !strings.HasPrefix(reply1, "OK") {
		t.Fatalf("first batch: %q", reply1)
	}
	crash(s)
	tc.c.Close()

	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	reply2, _ := tc2.cmd(batchCmd)
	if reply2 != reply1 {
		t.Fatalf("retry across crash: got %q, want original reply %q", reply2, reply1)
	}
	stats, _ := tc2.cmd("STATS q1")
	if in := statsIn(t, stats); in != 3 {
		t.Fatalf("after crash retry In=%d, want exactly 3 (no double apply)", in)
	}
	// Control: the same rows without the id re-apply — the dedup window is
	// what provides exactly-once, not an accident of the payload.
	reply3, _ := tc2.cmd(strings.TrimSuffix(batchCmd, " @rid-1"))
	if !strings.HasPrefix(reply3, "OK") {
		t.Fatalf("control batch: %q", reply3)
	}
	stats, _ = tc2.cmd("STATS q1")
	if in := statsIn(t, stats); in != 6 {
		t.Fatalf("control re-apply In=%d, want 6", in)
	}
}

// TestChaosShedLevelJournaled crashes a server mid-stream after a SHED
// transition and checks the recovered server continues bit-identically to
// an uninterrupted reference — the journaled RecShed restores the accuracy
// budget (and its RNG consumption) at the same point in the sequence.
func TestChaosShedLevelJournaled(t *testing.T) {
	const shedAt, crashAt, total = 3, 7, 12
	run := func(t *testing.T, doCrash bool) (data []string, stats string, level string) {
		dir := t.TempDir()
		s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
		tc := dialServer(t, addr)
		tc.mustOK(crashStreamCmd)
		tc.mustOK(crashQueryCmd)
		for i := 0; i < total; i++ {
			if i == shedAt {
				tc.mustOK("SHED 2")
			}
			if doCrash && i == crashAt {
				crash(s)
				tc.c.Close()
				s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
				s, addr = s2, addr2
				tc = dialServer(t, addr)
				tc.mustOK("ATTACH q1")
			}
			data = append(data, tc.mustOK(crashInsertCmd(i))...)
		}
		stats, _ = tc.cmd("STATS q1")
		level, _ = tc.cmd("SHED")
		tc.c.Close()
		s.Close()
		return data, stats, level
	}
	refData, refStats, refLevel := run(t, false)
	if refLevel != "OK shed level=2" {
		t.Fatalf("reference level = %q", refLevel)
	}
	gotData, gotStats, gotLevel := run(t, true)
	if gotLevel != refLevel {
		t.Errorf("recovered level %q, want %q", gotLevel, refLevel)
	}
	if gotStats != refStats {
		t.Errorf("stats %q, want %q", gotStats, refStats)
	}
	if len(gotData) != len(refData) {
		t.Fatalf("%d DATA lines, want %d", len(gotData), len(refData))
	}
	for i := range gotData {
		if gotData[i] != refData[i] {
			t.Fatalf("DATA %d diverged:\nref: %s\ngot: %s", i, refData[i], gotData[i])
		}
	}
}
