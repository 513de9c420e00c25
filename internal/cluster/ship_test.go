package cluster

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

// A follower that tails the live WAL serves byte-identical engine reads,
// rejects writes, and reports zero lag once caught up.
func TestReplicationBasic(t *testing.T) {
	p := startPrimary(t, 1, 1<<20, 0)
	f := startFollower(t, 1, p.shipAddr)

	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 8, 1)
	pc.mustOK("INSERTBATCH readings 9 N(75,16,9) | 10 S(55;52;58;61)")
	waitCaughtUp(t, p, f)

	pr := dialRaw(t, p.addr)
	fc := dialRaw(t, f.addr)
	compareReplies(t, pr, fc,
		"STATS q1", "STATS q2", "METRICS q1", "METRICS q2", "EXPLAIN q1", "EXPLAIN q2")

	// Writes are rejected until promotion; reads and diagnostics are not.
	for _, cmd := range []string{
		"INSERT readings 99 N(1,1,1)",
		"INSERTBATCH readings 99 N(1,1,1)",
		"STREAM other x",
		"QUERY q9 SELECT temp FROM readings",
		"CLOSE q1",
		"SHED 1",
	} {
		rep := fc.cmd(cmd)
		last := rep[len(rep)-1]
		if !strings.HasPrefix(last, "ERR") || !strings.Contains(last, "read-only replica") {
			t.Fatalf("%q on follower: got %q, want read-only rejection", cmd, last)
		}
	}
	if rep := fc.cmd("SHED"); !strings.HasPrefix(rep[len(rep)-1], "OK") {
		t.Fatalf("bare SHED (status read) should work on a follower: %q", rep)
	}

	if got := gFollowers.Value(); got < 1 {
		t.Fatalf("asdb_repl_followers = %d, want >= 1", got)
	}
	if got := gLagRecords.Value(); got != 0 {
		t.Fatalf("asdb_repl_lag_records = %d after catch-up, want 0", got)
	}
	if got := gLagSeconds.Value(); got != 0 {
		t.Fatalf("asdb_repl_lag_seconds = %g after catch-up, want 0", got)
	}
}

// A follower arriving after checkpoints truncated the WAL bootstraps from
// the latest complete snapshot plus the exact WAL suffix.
func TestSnapshotCatchup(t *testing.T) {
	p := startPrimary(t, 1, 4, 256)
	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 24, 1)

	oldest, err := p.srv.WAL().OldestLSN()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 1 {
		t.Fatalf("workload did not truncate the WAL (oldest=%d); snapshot path untested", oldest)
	}

	f := startFollower(t, 4, p.shipAddr)
	lsn := waitCaughtUp(t, p, f)
	if f.f.LastApplied() != lsn {
		t.Fatalf("lastApplied = %d, want %d", f.f.LastApplied(), lsn)
	}
	pr := dialRaw(t, p.addr)
	fc := dialRaw(t, f.addr)
	// Telemetry (rolling CI widths) is observation-only and not part of
	// the checkpointed state, so METRICS is only byte-identical for
	// followers that replayed every record; snapshot bootstraps compare
	// the deterministic engine reads.
	compareReplies(t, pr, fc, "STATS q1", "STATS q2", "EXPLAIN q2")

	// Late writes still flow: the snapshot seeded state, the live tail
	// extends it.
	insertN(t, pc, 4, 100)
	waitCaughtUp(t, p, f)
	compareReplies(t, pr, fc, "STATS q1", "STATS q2")
}

// A checkpoint larger than the ship line cap still bootstraps a follower:
// the SNAP body is framed by its announced length, not read as a line.
// Seventeen queries with distinct windows each keep their own copy of 30
// tuples, and each tuple carries a 1000-bin histogram (~37 KB of
// checkpoint JSON), so one batch passes the cap. Under the race detector
// the primary takes seconds to decode that checkpoint before it ships and
// the follower as long again to install it, hence the long timeouts.
func TestSnapshotOverLineCap(t *testing.T) {
	p := startPrimary(t, 1, 19, 1<<16)
	pc := dialRaw(t, p.addr)
	pc.mustOK("STREAM wide id temp:dist h:dist")
	for q := 1; q <= 17; q++ {
		pc.mustOK(fmt.Sprintf("QUERY q%d SELECT AVG(temp) AS avg_temp FROM wide WINDOW %d ROWS", q, 100+q))
	}
	var edges, counts strings.Builder
	for i := 0; i <= 1000; i++ {
		fmt.Fprintf(&edges, ",%.9f", float64(i)/7)
		if i < 1000 {
			fmt.Fprintf(&counts, ",%d", 1+i*i%97)
		}
	}
	hist := "H(" + edges.String()[1:] + "|" + counts.String()[1:] + ")"
	var batch strings.Builder
	batch.WriteString("INSERTBATCH wide")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&batch, " %d N(%d,4,25) %s |", i, 40+i%40, hist)
	}
	pc.mustOK(strings.TrimSuffix(batch.String(), " |"))
	// The batch is record 19, so it checkpoints; the newest file is last.
	files, err := os.ReadDir(filepath.Join(p.cfg.DataDir, "checkpoints"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint after the batch: %v", err)
	}
	info, err := files[len(files)-1].Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= maxShipLine {
		t.Fatalf("latest checkpoint is %d bytes, want more than the %d-byte line cap", info.Size(), maxShipLine)
	}
	pc.mustOK("INSERT wide 30 N(50,4,25) " + hist)

	f := startFollowerOpts(t, 1, p.shipAddr, FollowOptions{RetryBase: 2 * time.Millisecond, ReadTimeout: time.Minute})
	if lsn := p.srv.WAL().LastLSN(); !f.f.WaitCaughtUp(lsn, time.Minute) {
		t.Fatalf("follower stuck at lsn %d, want %d (terminal err: %v)", f.f.LastApplied(), lsn, f.f.Err())
	}
	compareReplies(t, dialRaw(t, p.addr), dialRaw(t, f.addr), "STATS q1", "STATS q17")
}

// A follower that dies and is replaced catches up even when the primary
// truncated past the crash point in between.
func TestFollowerCrashRestartCatchup(t *testing.T) {
	p := startPrimary(t, 1, 4, 256)
	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 6, 1)

	f1 := startFollower(t, 1, p.shipAddr)
	waitCaughtUp(t, p, f1)
	f1.f.Close()
	f1.srv.Close()

	// The dead follower's position falls behind the truncation horizon.
	insertN(t, pc, 24, 50)

	f2 := startFollower(t, 2, p.shipAddr)
	waitCaughtUp(t, p, f2)
	pr := dialRaw(t, p.addr)
	fc := dialRaw(t, f2.addr)
	compareReplies(t, pr, fc, "STATS q1", "STATS q2", "EXPLAIN q1")
}

// The handshake race: a checkpoint finishes (and truncates) between the
// primary choosing a snapshot for a connecting follower and pinning the
// suffix after it. The pin-then-verify loop must hand out the NEWER
// complete snapshot plus an exactly-adjacent suffix — no LSN gap, no
// double-apply.
func TestAttachDuringCheckpointPinsExactSuffix(t *testing.T) {
	p := startPrimary(t, 1, 2, 128)
	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 12, 1)
	oldest, err := p.srv.WAL().OldestLSN()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 1 {
		t.Fatalf("workload did not truncate the WAL (oldest=%d)", oldest)
	}

	// On the first snapshot handoff, advance the primary by enough
	// inserts to complete another checkpoint + truncation before the
	// ship loop re-pins. Inserts run on a second connection so the hook
	// (ship goroutine) doesn't deadlock with the test goroutine.
	var hookOnce sync.Once
	fired := make(chan struct{})
	testHookShipSnapshot = func() {
		hookOnce.Do(func() {
			defer close(fired)
			hc := dialRaw(t, p.addr)
			insertN(t, hc, 6, 200)
		})
	}
	t.Cleanup(func() { testHookShipSnapshot = nil })

	f := startFollower(t, 1, p.shipAddr)
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot handshake hook never fired")
	}
	waitCaughtUp(t, p, f)
	if err := f.f.Err(); err != nil {
		t.Fatalf("follower hit terminal error (gap or divergence): %v", err)
	}
	pr := dialRaw(t, p.addr)
	fc := dialRaw(t, f.addr)
	compareReplies(t, pr, fc, "STATS q1", "STATS q2", "EXPLAIN q2")
}

// The exact bytes of every ship frame, read off a live ShipServer. Both
// ends of the end-to-end suites share one codec, so a layout change passes
// them unnoticed; only a test that reads the wire itself pins the layout.
func TestShipFrameBytes(t *testing.T) {
	expect := func(t *testing.T, r *raw, pattern string) []string {
		t.Helper()
		line := r.line()
		m := regexp.MustCompile(pattern).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("frame %q does not match %s", line, pattern)
		}
		return m
	}

	t.Run("REC then HB", func(t *testing.T) {
		p := startPrimary(t, 1, 1<<20, 0)
		pc := dialRaw(t, p.addr)
		seedGolden(t, pc)
		insertN(t, pc, 1, 1)
		pc.mustOK("INSERTBATCH readings 9 N(75,16,9) | 10 S(55;52;58;61)")
		r := dialRaw(t, p.shipAddr)
		r.send("SYNC 0 1")
		expect(t, r, `^REC 1 1 2 \d+ readings sensor temp:dist$`)
		expect(t, r, `^REC 2 1 3 \d+ q1 SELECT temp FROM readings WHERE temp > 50$`)
		expect(t, r, `^REC 3 1 3 \d+ q2 SELECT AVG\(temp\) AS avg_temp FROM readings WINDOW 3 ROWS$`)
		expect(t, r, `^REC 4 1 1 \d+ readings 1 N\(41,4,25\)$`)
		expect(t, r, `^REC 5 1 5 \d+ readings 9 N\(75,16,9\) \| 10 S\(55;52;58;61\)$`)
		expect(t, r, `^HB 5 1 \d+$`)
	})

	t.Run("SNAP after truncation", func(t *testing.T) {
		p := startPrimary(t, 1, 4, 256)
		pc := dialRaw(t, p.addr)
		seedGolden(t, pc)
		insertN(t, pc, 24, 1)
		r := dialRaw(t, p.shipAddr)
		r.send("SYNC 0 1")
		m := expect(t, r, `^SNAP (\d+) 1 (\d+)$`)
		lsn, _ := strconv.ParseUint(m[1], 10, 64)
		n, _ := strconv.Atoi(m[2])
		body := make([]byte, n+1)
		if _, err := io.ReadFull(r.br, body); err != nil {
			t.Fatalf("snapshot body: %v", err)
		}
		if body[n] != '\n' {
			t.Fatalf("snapshot body ends in %q, want a newline", body[n])
		}
		if _, err := checkpoint.Decode(body[:n]); err != nil {
			t.Fatalf("snapshot body is not a checkpoint: %v", err)
		}
		if lsn == p.srv.WAL().LastLSN() {
			expect(t, r, fmt.Sprintf(`^HB %d 1 \d+$`, lsn))
		} else {
			expect(t, r, fmt.Sprintf(`^REC %d 1 1 \d+ readings \d+ N\(\d+,4,25\)$`, lsn+1))
		}
	})

	t.Run("TRUNC and FENCE", func(t *testing.T) {
		p := startPrimary(t, 1, 1<<20, 0)
		seedGolden(t, dialRaw(t, p.addr))
		if _, err := p.srv.BumpEpochTo(2); err != nil {
			t.Fatal(err)
		}
		boundary := p.srv.WAL().LastLSN()
		r := dialRaw(t, p.shipAddr)
		r.send(fmt.Sprintf("SYNC %d 1", boundary+5))
		expect(t, r, fmt.Sprintf(`^TRUNC %d 2$`, boundary-1))

		r = dialRaw(t, p.shipAddr)
		r.send("SYNC 0 7")
		expect(t, r, `^FENCE 7$`)
	})
}

// An epochless SYNC (pre-epoch connector) must be rejected at the
// handshake: such a follower cannot parse the current REC frame format, and
// streaming to it would have it silently apply garbage. The rejection is a
// loud ERR line, not a silent close.
func TestEpochlessSyncRejected(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	for _, handshake := range []string{"SYNC 0", "SYNC 5", "SYNC 0 0", "SYNC 0 x", "SYNC 0 1 2", "SYNC -1 1"} {
		r := dialRaw(t, p.shipAddr)
		r.send(handshake)
		if line := r.line(); !strings.HasPrefix(line, "ERR") {
			t.Fatalf("%q: got %q, want ERR rejection", handshake, line)
		}
	}
	r := dialRaw(t, p.shipAddr)
	r.send("SYNC 0")
	if line, want := r.line(), "ERR SYNC requires <lastAppliedLSN> <epoch>; upgrade the follower"; line != want {
		t.Fatalf("epochless SYNC: got %q, want %q", line, want)
	}
	// A well-formed SYNC still gets the stream (heartbeat, not ERR).
	r = dialRaw(t, p.shipAddr)
	r.send("SYNC 0 1")
	if line := r.line(); !strings.HasPrefix(line, "HB ") {
		t.Fatalf("valid SYNC: got %q, want HB frame", line)
	}
}

// Promotion flips a caught-up follower writable; it then computes the
// exact continuation the primary would have (same RNG evolution).
func TestPromoteContinuesDeterministically(t *testing.T) {
	p := startPrimary(t, 1, 1<<20, 0)
	f := startFollower(t, 1, p.shipAddr)
	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 5, 1)
	waitCaughtUp(t, p, f)

	f.f.Promote()
	fc := dialRaw(t, f.addr)
	fc.mustOK("ATTACH q1")
	fc.mustOK("ATTACH q2")
	// The same next insert must produce byte-identical DATA frames and
	// reply on the (now isolated) promoted follower and on the primary
	// (pc owns the queries there, so it receives DATA synchronously).
	next := "INSERT readings 6 N(70,9,16)"
	gotF := strings.Join(fc.cmd(next), "\n")
	gotP := strings.Join(pc.cmd(next), "\n")
	if gotF != gotP {
		t.Fatalf("post-promotion divergence:\nfollower: %s\nprimary:  %s", gotF, gotP)
	}
	pr := dialRaw(t, p.addr)
	fr := dialRaw(t, f.addr)
	compareReplies(t, pr, fr, "STATS q1", "STATS q2")
}

// A follower's connection that ATTACHed a query and then left only
// detaches it: the follower neither unbinds the query nor journals a
// CLOSE, so it stays caught up and answers byte-identically to the
// primary, whether it keeps a WAL of its own or not.
func TestFollowerDisconnectDetaches(t *testing.T) {
	for _, kind := range []struct {
		name  string
		start func(testing.TB, int, string) *tnode
	}{{"in-memory", startFollower}, {"durable", startDurableFollower}} {
		t.Run(kind.name, func(t *testing.T) {
			p := startPrimary(t, 1, 1<<20, 0)
			f := kind.start(t, 1, p.shipAddr)
			pc := dialRaw(t, p.addr)
			seedGolden(t, pc)
			insertN(t, pc, 4, 1)
			waitCaughtUp(t, p, f)

			owner := dialRaw(t, f.addr)
			owner.mustOK("ATTACH q1")
			owner.nc.Close()
			// The follower has handled the disconnect once another
			// connection no longer finds q1 owned.
			next := dialRaw(t, f.addr)
			for {
				rep := next.cmd("ATTACH q1")
				if last := rep[len(rep)-1]; !strings.Contains(last, "owned by another connection") {
					if last != "OK attached q1" {
						t.Fatalf("ATTACH q1 after the owner left: %q", last)
					}
					break
				}
				time.Sleep(time.Millisecond)
			}

			insertN(t, pc, 3, 5)
			waitCaughtUp(t, p, f)
			compareReplies(t, dialRaw(t, p.addr), dialRaw(t, f.addr), "STATS q1")
			if err := f.f.Err(); err != nil {
				t.Fatalf("follower stopped: %v", err)
			}
		})
	}
}
