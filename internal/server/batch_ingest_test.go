package server

// Tests for the batched + sharded ingest path: INSERTBATCH equivalence
// with single INSERTs, cross-worker determinism of the batch path, torn
// mid-batch crash recovery (a server batch is one WAL frame, so a torn
// batch disappears atomically), concurrent multi-stream ingest, and the
// recovery-metrics gate (replay must not pollute steady-state counters).

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// crashBatchCmd builds one INSERTBATCH over the same tuple sequence
// crashInsertCmd(lo..hi-1) produces one at a time.
func crashBatchCmd(lo, hi int) string {
	parts := []string{"INSERTBATCH", "temps"}
	for i := lo; i < hi; i++ {
		if i > lo {
			parts = append(parts, "|")
		}
		parts = append(parts, fmt.Sprintf("%d", i), fmt.Sprintf("N(%d.5,2.25,%d)", 10+i, 20+i))
	}
	return strings.Join(parts, " ")
}

// TestInsertBatchEquivalence: pushing tuples through INSERTBATCH must
// yield byte-identical DATA lines and stats to pushing them one INSERT at
// a time — at any worker count, including across batch boundaries.
func TestInsertBatchEquivalence(t *testing.T) {
	const total = 10
	refData, refStats := runReference(t, 1, total)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			s, addr := startDurableServer(t, durableConfig(dir, workers, 1024))
			defer s.Close()
			tc := dialServer(t, addr)
			defer tc.c.Close()
			tc.mustOK(crashStreamCmd)
			tc.mustOK(crashQueryCmd)
			var data []string
			for _, span := range [][2]int{{0, 4}, {4, 5}, {5, 10}} {
				reply, lines := tc.cmd(crashBatchCmd(span[0], span[1]))
				want := fmt.Sprintf("OK inserted tuples=%d results=%d", span[1]-span[0], len(lines))
				if reply != want {
					t.Fatalf("batch %v reply = %q, want %q", span, reply, want)
				}
				data = append(data, lines...)
			}
			if len(data) != len(refData) {
				t.Fatalf("batched run emitted %d DATA lines, reference %d", len(data), len(refData))
			}
			for i := range data {
				if data[i] != refData[i] {
					t.Fatalf("DATA line %d diverged:\nsingle: %s\nbatch:  %s", i, refData[i], data[i])
				}
			}
			if reply, _ := tc.cmd("STATS q1"); reply != refStats {
				t.Fatalf("stats diverged: single %q, batch %q", refStats, reply)
			}
		})
	}
}

// TestInsertBatchValidation covers the batch framing errors.
func TestInsertBatchValidation(t *testing.T) {
	s, addr := startDurableServer(t, durableConfig(t.TempDir(), 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	for _, line := range []string{
		"INSERTBATCH",
		"INSERTBATCH temps",
		"INSERTBATCH temps 1 N(1,1,5) | | 2 N(2,1,5)",
		"INSERTBATCH temps 1 N(1,1,5) |",
		"INSERTBATCH nosuch 1 N(1,1,5)",
		"INSERTBATCH temps 1 bogus(",
	} {
		if reply, _ := tc.cmd(line); !strings.HasPrefix(reply, "ERR") {
			t.Errorf("%q: got %q, want ERR", line, reply)
		}
	}
	// A malformed batch must not have consumed sequence numbers: the next
	// valid insert's DATA output still matches a clean run's first window.
	tc.mustOK("QUERY q1 SELECT AVG(val) FROM temps WINDOW 3 ROWS")
	for i := 0; i < 3; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	if reply, _ := tc.cmd("STATS q1"); !strings.Contains(reply, `"In":3`) {
		t.Errorf("stats after failed batches = %q, want In=3", reply)
	}
}

// TestCrashRecoveryTornBatch tears the WAL inside the final INSERTBATCH
// frame. The server journals a batch as a single frame, so recovery must
// drop the whole batch (all-or-nothing) and continue exactly from the
// state before it.
func TestCrashRecoveryTornBatch(t *testing.T) {
	// Reference: two durable batches, then the post-recovery inserts.
	refDir := t.TempDir()
	rs, refAddr := startDurableServer(t, durableConfig(refDir, 2, 1024))
	defer rs.Close()
	rc := dialServer(t, refAddr)
	defer rc.c.Close()
	rc.mustOK(crashStreamCmd)
	rc.mustOK(crashQueryCmd)
	rc.mustOK(crashBatchCmd(0, 4))
	rc.mustOK(crashBatchCmd(4, 8))
	var refData []string
	for i := 8; i < 12; i++ {
		refData = append(refData, rc.mustOK(crashInsertCmd(i))...)
	}
	refStats, _ := rc.cmd("STATS q1")

	// Crashed run: a third batch is journaled but its frame gets torn.
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 2, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	tc.mustOK(crashBatchCmd(0, 4))
	tc.mustOK(crashBatchCmd(4, 8))
	tc.mustOK(crashBatchCmd(8, 12))
	crash(s)
	tc.c.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// The last frame is the third batch; clipping its tail tears it.
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, addr2 := startDurableServer(t, durableConfig(dir, 2, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	tc2.mustOK("ATTACH q1")
	var data []string
	for i := 8; i < 12; i++ {
		data = append(data, tc2.mustOK(crashInsertCmd(i))...)
	}
	stats, _ := tc2.cmd("STATS q1")
	compareTail(t, refData, data, refStats, stats)
}

// TestConcurrentShardedIngest drives four clients into four distinct
// streams at once (each with its own windowed query), then crashes and
// recovers. Per-query state depends only on its own stream's arrival
// order, so stats must be exact despite arbitrary cross-stream
// interleaving — and the recovered server must reproduce them from the
// interleaved WAL.
func TestConcurrentShardedIngest(t *testing.T) {
	const clients, batches, rows = 4, 6, 8
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 2, 1024))

	ctl := dialServer(t, addr)
	workers := make([]*tclient, clients)
	for i := 0; i < clients; i++ {
		ctl.mustOK(fmt.Sprintf("STREAM s%d key val:dist", i))
		workers[i] = dialServer(t, addr)
		workers[i].mustOK(fmt.Sprintf("QUERY q%d SELECT AVG(val) FROM s%d WINDOW 5 ROWS", i, i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := workers[i]
			send := func(line string) error {
				if _, err := fmt.Fprintf(tc.c, "%s\n", line); err != nil {
					return err
				}
				for tc.sc.Scan() {
					got := tc.sc.Text()
					if strings.HasPrefix(got, "DATA ") {
						continue
					}
					if !strings.HasPrefix(got, "OK") {
						return fmt.Errorf("client %d: %q: %s", i, line, got)
					}
					return nil
				}
				return fmt.Errorf("client %d: connection closed (%v)", i, tc.sc.Err())
			}
			for b := 0; b < batches; b++ {
				parts := []string{"INSERTBATCH", fmt.Sprintf("s%d", i)}
				for r := 0; r < rows; r++ {
					if r > 0 {
						parts = append(parts, "|")
					}
					v := b*rows + r
					parts = append(parts, fmt.Sprintf("%d", v), fmt.Sprintf("N(%d.5,4,%d)", 10+v, 15+v))
				}
				if err := send(strings.Join(parts, " ")); err != nil {
					errs <- err
					return
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
	// Worker clients are still connected, so their queries stay registered.
	before := make([]string, clients)
	for i := range before {
		before[i], _ = ctl.cmd(fmt.Sprintf("STATS q%d", i))
		want := fmt.Sprintf(`"In":%d`, batches*rows)
		if !strings.Contains(before[i], want) {
			t.Fatalf("q%d stats = %q, want %s", i, before[i], want)
		}
	}
	crash(s)
	ctl.c.Close()
	for _, w := range workers {
		w.c.Close()
	}

	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	for i := 0; i < clients; i++ {
		after, _ := tc2.cmd(fmt.Sprintf("STATS q%d", i))
		if after != before[i] {
			t.Errorf("q%d stats diverged after recovery: live %q, recovered %q", i, before[i], after)
		}
	}
}

// TestRecoveryMetricsParity: WAL replay reconstructs state through the
// same push paths as live ingest, but must not re-count that work in the
// steady-state metrics — a recovered process reports the same counters as
// one that never crashed, with the replayed work visible only in the
// dedicated recovery counter.
func TestRecoveryMetricsParity(t *testing.T) {
	const inserts = 6
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	tc.mustOK(crashBatchCmd(0, 3))
	for i := 3; i < inserts; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	crash(s)
	tc.c.Close()

	// The registry is process-global, so parity is asserted on deltas
	// across the recovery (which replays the stream DDL, the query, and
	// every insert).
	before := metrics.Default.Snapshot()
	s2, _ := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	after := metrics.Default.Snapshot()

	for _, name := range []string{
		"asdb_query_push_total",
		"asdb_query_results_total",
		"asdb_engine_tuples_total",
		"asdb_engine_streams_total",
		"asdb_engine_queries_compiled_total",
		"asdb_ingest_batches_total",
	} {
		if d := after.Counters[name] - before.Counters[name]; d != 0 {
			t.Errorf("recovery bumped steady-state counter %s by %d", name, d)
		}
	}
	for _, name := range []string{
		"asdb_query_push_seconds",
		"asdb_ingest_batch_rows",
		"asdb_ingest_shard_wait_seconds",
	} {
		if d := after.Histograms[name].Count - before.Histograms[name].Count; d != 0 {
			t.Errorf("recovery bumped steady-state histogram %s by %d observations", name, d)
		}
	}
	if d := after.Counters["asdb_query_recovery_push_total"] - before.Counters["asdb_query_recovery_push_total"]; d != inserts {
		t.Errorf("recovery pushes counted %d, want %d", d, inserts)
	}
}

// TestPushHistogramHelp: asdb_query_push_seconds has one definition, the
// engine's, whatever registers first; the load-shed controller reads that
// same histogram. /debug/metrics serves metrics.Default.Handler.
func TestPushHistogramHelp(t *testing.T) {
	if core.PushLatency() != metrics.Default.Histogram("asdb_query_push_seconds", "", nil) {
		t.Fatal("the registry's asdb_query_push_seconds is not the engine's push histogram")
	}
	rec := httptest.NewRecorder()
	metrics.Default.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	const want = "# HELP asdb_query_push_seconds wall time of one tuple push through one query; " +
		"a plan group's push of a tuple counts once per member, at the group's time divided by its members\n"
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/debug/metrics lacks %q", want)
	}
}

// BenchmarkMultiClientIngest measures end-to-end insert throughput with
// four concurrent clients feeding four distinct streams on a durable
// fsync=always server. The serialized baseline sends one INSERT per round
// trip (one WAL frame + fsync each); the batched variant sends
// 32-tuple INSERTBATCH frames (one round trip, one WAL frame, one fsync
// per batch — group commit). ns/op is per tuple.
func BenchmarkMultiClientIngest(b *testing.B) {
	const clients = 4
	for _, batch := range []int{1, 32} {
		name := "serialized"
		if batch > 1 {
			name = fmt.Sprintf("batched=%d", batch)
		}
		b.Run(fmt.Sprintf("%s/clients=%d", name, clients), func(b *testing.B) {
			dir := b.TempDir()
			s, addr := startDurableServer(b, durableConfig(dir, 1, 1<<30))
			defer s.Close()
			tcs := make([]*tclient, clients)
			for i := range tcs {
				tcs[i] = dialServer(b, addr)
				tcs[i].mustOK(fmt.Sprintf("STREAM b%d key val:dist", i))
				tcs[i].mustOK(fmt.Sprintf("QUERY bq%d SELECT AVG(val) FROM b%d WINDOW 8 ROWS", i, i))
				defer tcs[i].c.Close()
			}
			per := (b.N + clients - 1) / clients
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tc := tcs[i]
					for sent := 0; sent < per; sent += batch {
						n := batch
						if per-sent < n {
							n = per - sent
						}
						if n == 1 {
							line := fmt.Sprintf("INSERT b%d %d N(12.5,4,20)", i, sent)
							if _, err := fmt.Fprintf(tc.c, "%s\n", line); err != nil {
								b.Error(err)
								return
							}
						} else {
							parts := []string{"INSERTBATCH", fmt.Sprintf("b%d", i)}
							for r := 0; r < n; r++ {
								if r > 0 {
									parts = append(parts, "|")
								}
								parts = append(parts, fmt.Sprintf("%d", sent+r), "N(12.5,4,20)")
							}
							if _, err := fmt.Fprintf(tc.c, "%s\n", strings.Join(parts, " ")); err != nil {
								b.Error(err)
								return
							}
						}
						ok := false
						for tc.sc.Scan() {
							if got := tc.sc.Text(); !strings.HasPrefix(got, "DATA ") {
								ok = strings.HasPrefix(got, "OK")
								break
							}
						}
						if !ok {
							b.Errorf("client %d: bad reply (%v)", i, tc.sc.Err())
							return
						}
					}
				}(i)
			}
			wg.Wait()
		})
	}
}
