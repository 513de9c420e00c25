package cluster

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/randvar"
	"repro/internal/server"
)

// The ISSUE 10 acceptance scenario, end to end and fully automatic: the
// primary dies mid-INSERTBATCH, the FailoverManager detects the silence
// and promotes the durable follower (journaling the epoch bump first),
// the client's retry lands exactly once via the replicated dedup window,
// and the revived old primary is fenced with the stale-epoch sentinel,
// truncates its diverged suffix, and rejoins as a follower — converging
// byte-identical. Run at workers 1 and 8; the final state must also be
// byte-identical ACROSS worker counts.
func TestChaosAutoFailoverRejoin(t *testing.T) {
	transcripts := make(map[int]string)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			transcripts[workers] = runAutoFailoverRejoin(t, workers)
		})
	}
	t1, t8 := transcripts[1], transcripts[8]
	if t1 == "" || t8 == "" {
		return // a subtest already failed
	}
	if t1 != t8 {
		t.Errorf("post-failover state diverged across worker counts:\nworkers=1: %s\nworkers=8: %s", t1, t8)
	}
}

func runAutoFailoverRejoin(t *testing.T, workers int) string {
	p := startPrimary(t, workers, 0, 0)
	df := startDurableFollower(t, workers, p.shipAddr)

	pc := dialRaw(t, p.addr)
	pc.mustOK("STREAM temps seq temp:dist")
	pc.mustOK("QUERY q1 SELECT temp FROM temps")
	pc.mustOK("QUERY q2 SELECT AVG(temp) AS avg_temp FROM temps WINDOW 3 ROWS")
	waitCaughtUp(t, p, df)

	// The failure detector: rank 0 (sole replica), fast windows so the
	// test's kill→detect→promote cycle runs in a few hundred ms. On
	// promotion the new primary starts its own ship listener — the address
	// the fenced ex-primary will rejoin through.
	newShipAddrCh := make(chan string, 1)
	fm := NewFailoverManager(df.srv, df.f, quiet, FailoverOptions{
		Self:         df.addr,
		Primary:      p.shipAddr,
		Peers:        []string{df.addr},
		SuspectAfter: 120 * time.Millisecond,
		ProbeEvery:   5 * time.Millisecond,
		OnPromote: func(epoch uint64) {
			ship, err := NewShipServer(df.srv, quiet, ShipOptions{Heartbeat: 10 * time.Millisecond, Poll: time.Millisecond})
			if err != nil {
				t.Errorf("promoted ship server: %v", err)
				newShipAddrCh <- ""
				return
			}
			addr, err := ship.Listen("127.0.0.1:0")
			if err != nil {
				t.Errorf("promoted ship listen: %v", err)
				newShipAddrCh <- ""
				return
			}
			go ship.Serve()
			t.Cleanup(func() { ship.Close() })
			newShipAddrCh <- addr.String()
		},
	})
	fm.Start()
	t.Cleanup(fm.Stop)

	// Client side: the primary address goes through a proxy that tears the
	// FIRST ingest reply mid-line; the durable follower is the failover
	// target. DDL already happened out of band, so conn 0's fault budget is
	// spent entirely on the ingest exchange.
	proxy := shipProxy(t, p.addr, func(i int) fault.ConnFaults {
		if i == 0 {
			return fault.ConnFaults{DropAfterReadBytes: 5}
		}
		return fault.ConnFaults{}
	})
	cl, err := NewClient([]Node{{Primary: proxy.Addr(), Replicas: []string{df.addr}}}, server.DialOptions{
		Retries:   12,
		RetryBase: 10 * time.Millisecond,
		RetryMax:  100 * time.Millisecond,
		OpTimeout: 2 * time.Second,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.topo.registerStream("temps", "temps seq temp:dist")

	// Kill the primary between the torn attempt and the first retry — and
	// do NOT promote anyone: the FailoverManager must notice on its own.
	var kill sync.Once
	testHookRouteRetry = func(int) {
		kill.Do(func() {
			if !df.f.WaitCaughtUp(p.srv.WAL().LastLSN(), 5*time.Second) {
				t.Error("durable follower never received the torn batch")
			}
			p.ship.Close()
			pc.nc.Close()
			p.srv.Close()
		})
	}
	t.Cleanup(func() { testHookRouteRetry = nil })

	rows := make([][]randvar.Field, 3)
	for i := range rows {
		fl, err := server.ParseFieldSpec(fmt.Sprintf("N(%d.5,2.25,%d)", 10+i, 20+i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = []randvar.Field{randvar.Det(float64(i)), fl}
	}
	failoversBefore := mFailovers.Value()
	results, err := cl.InsertBatch("temps", rows...)
	if err != nil {
		t.Fatalf("routed batch failed across automatic failover: %v", err)
	}
	// 3 rows through q1 plus q2's 3-row window filling once = 4 results;
	// anything else means the batch was lost or double-applied.
	if results != 4 {
		t.Fatalf("batch results = %d, want 4 (dedup window must return the primary's reply)", results)
	}
	if got := mFailovers.Value() - failoversBefore; got != 1 {
		t.Fatalf("asdb_failover_total delta = %d, want 1", got)
	}
	if !fm.Promoted() {
		t.Fatal("failover manager did not report the promotion")
	}
	if got := df.srv.Epoch(); got != 2 {
		t.Fatalf("promoted follower epoch = %d, want 2", got)
	}
	newShipAddr := <-newShipAddrCh
	if newShipAddr == "" {
		t.Fatal("promotion did not start a ship listener")
	}

	// Exactly once: the promoted follower holds 3 tuples, not 6.
	dfc := dialRaw(t, df.addr)
	rep := dfc.mustOK("STATS q1")
	if stats := rep[len(rep)-1]; !strings.Contains(stats, `"In":3,`) {
		t.Fatalf("promoted follower applied the batch more than once: %s", stats)
	}
	// The new primary keeps serving: a fresh batch extends epoch 2 history.
	if _, err := cl.InsertBatch("temps", rows[0]); err != nil {
		t.Fatalf("post-failover batch: %v", err)
	}

	// Revive the old primary from its data dir. It recovers at epoch 1,
	// writable, oblivious to the failover — and takes two writes that epoch
	// 2 never saw: the diverged suffix the rejoin must cut.
	eng, err := core.NewEngine(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := server.NewDurable(eng, quiet)
	if err != nil {
		t.Fatal(err)
	}
	oldAddr, err := old.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go old.Serve()
	if got := old.Epoch(); got != 1 {
		t.Fatalf("revived primary epoch = %d, want 1", got)
	}
	oc := dialRaw(t, oldAddr.String())
	oc.mustOK("INSERT temps 500 N(50,4,25)")
	oc.mustOK("INSERT temps 501 N(51,4,25)")
	divergedLSN := old.WAL().LastLSN()

	// Point the ex-primary at the new one. The SYNC announces epoch 1 with
	// a diverged suffix, so the new primary answers TRUNC: the follower
	// loop fences the server and surfaces the terminal RejoinError.
	of := NewFollower(old, newShipAddr, quiet, FollowOptions{
		RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond, ReadTimeout: 2 * time.Second,
	})
	of.SetLastApplied(divergedLSN)
	of.Start()
	t.Cleanup(of.Close)
	var re *RejoinError
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := of.Err(); err != nil {
			if !errors.As(err, &re) {
				t.Fatalf("rejoiner terminal error = %v, want RejoinError", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rejoiner never received the divergence verdict")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if re.Epoch != 2 {
		t.Fatalf("RejoinError epoch = %d, want 2", re.Epoch)
	}
	if re.SafeLSN >= divergedLSN {
		t.Fatalf("RejoinError safe lsn %d does not cut the diverged suffix (last %d)", re.SafeLSN, divergedLSN)
	}

	// Fenced: the old primary now rejects writes with the sentinel, and the
	// rejection is counted.
	fencedBefore := mFencedRejects.Value()
	frep := oc.cmd("INSERT temps 502 N(52,4,25)")
	if last := frep[len(frep)-1]; !strings.HasPrefix(last, "ERR") || !strings.Contains(last, "fenced: stale epoch") {
		t.Fatalf("write on fenced ex-primary = %q, want ERR with the stale-epoch sentinel", last)
	}
	if got := mFencedRejects.Value() - fencedBefore; got == 0 {
		t.Fatal("asdb_fenced_rejects_total did not count the fenced write")
	}

	// Rejoin: cut the diverged WAL suffix, drop diverged checkpoints,
	// re-recover, and follow the new primary.
	rsrv, rf, err := Rejoin(old, p.cfg, re, quiet, newShipAddr, FollowOptions{
		RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond, ReadTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	raddr, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve()
	rf.Start()
	rnode := &tnode{srv: rsrv, addr: raddr.String(), f: rf, cfg: p.cfg}
	t.Cleanup(func() {
		rf.Close()
		rsrv.Close()
	})
	waitCaughtUp(t, df, rnode)
	if err := rf.Err(); err != nil {
		t.Fatalf("rejoined follower terminal error: %v", err)
	}
	if got := rsrv.Epoch(); got != 2 {
		t.Fatalf("rejoined follower epoch = %d, want 2 (RecEpoch must have shipped)", got)
	}

	// Byte identity between the promoted primary and the rejoined node —
	// the diverged inserts must be gone. (STATS, not METRICS: telemetry
	// rolling windows are observability state outside the checkpoint, so a
	// node recovered through a snapshot legitimately reports shorter ones.)
	nc1 := dialRaw(t, df.addr)
	nc2 := dialRaw(t, rnode.addr)
	compareReplies(t, nc1, nc2, "STATS q1", "STATS q2")

	// The transcript for cross-worker-count comparison.
	s1 := dialRaw(t, df.addr)
	return strings.Join(s1.cmd("STATS q1"), "\n") + "\n" + strings.Join(s1.cmd("STATS q2"), "\n")
}

// The multi-replica promotion race, end to end with real probes: a primary
// with TWO durable failover-enabled followers dies, and exactly one of them
// may end up writable. The ladder's designated successor promotes; the
// other follower's survey finds the promoted winner, stands down, and
// re-points its replication loop at the winner's advertised ship address —
// so the shard converges on one primary, one epoch, byte-identical state.
// Regression for the multi-promotion split-brain: without the survey both
// followers promoted to the SAME epoch, which fencing can never repair.
func TestChaosTwoFollowerSinglePromotion(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	df1 := startDurableFollower(t, 1, p.shipAddr)
	df2 := startDurableFollower(t, 1, p.shipAddr)
	peers := []string{df1.addr, df2.addr}

	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 6, 1)
	waitCaughtUp(t, p, df1)
	waitCaughtUp(t, p, df2)

	// Both replicas run the full detector with the REAL prober: the loser
	// must discover the winner through an actual ROLE round trip on the
	// winner's client address.
	startFM := func(n *tnode) (*FailoverManager, chan string) {
		shipCh := make(chan string, 1)
		fm := NewFailoverManager(n.srv, n.f, quiet, FailoverOptions{
			Self:         n.addr,
			Primary:      p.shipAddr,
			Peers:        peers,
			SuspectAfter: 120 * time.Millisecond,
			ProbeEvery:   5 * time.Millisecond,
			OnPromote: func(epoch uint64) {
				ship, err := NewShipServer(n.srv, quiet, ShipOptions{Heartbeat: 10 * time.Millisecond, Poll: time.Millisecond})
				if err != nil {
					t.Errorf("promoted ship server: %v", err)
					shipCh <- ""
					return
				}
				addr, err := ship.Listen("127.0.0.1:0")
				if err != nil {
					t.Errorf("promoted ship listen: %v", err)
					shipCh <- ""
					return
				}
				go ship.Serve()
				t.Cleanup(func() { ship.Close() })
				shipCh <- addr.String()
			},
		})
		fm.Start()
		t.Cleanup(fm.Stop)
		return fm, shipCh
	}
	fm1, ship1 := startFM(df1)
	fm2, ship2 := startFM(df2)
	failoversBefore := mFailovers.Value()

	// Kill the primary outright; nothing tells the followers.
	p.ship.Close()
	pc.nc.Close()
	p.srv.Close()

	// One of the two detectors promotes.
	deadline := time.Now().Add(10 * time.Second)
	for !fm1.Promoted() && !fm2.Promoted() {
		if time.Now().After(deadline) {
			t.Fatal("no follower promoted after the primary died")
		}
		time.Sleep(5 * time.Millisecond)
	}
	winner, loser := df1, df2
	loserFM, winnerShipCh := fm2, ship1
	if fm2.Promoted() {
		winner, loser = df2, df1
		loserFM, winnerShipCh = fm1, ship2
	}
	winnerShip := <-winnerShipCh
	if winnerShip == "" {
		t.Fatal("promotion did not start a ship listener")
	}

	// The loser stands down and re-points its follower at the winner.
	deadline = time.Now().Add(10 * time.Second)
	for loser.f.Target() != winnerShip {
		if loserFM.Promoted() {
			t.Fatal("both followers promoted: multi-promotion split-brain")
		}
		if time.Now().After(deadline) {
			t.Fatalf("loser still follows %q, want the winner's ship addr %q", loser.f.Target(), winnerShip)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The winner owns its congruence class: its epoch is distinct from
	// anything the loser COULD ever journal.
	wantEpoch := nextCongruentEpoch(1, winner.addr, peers)
	if got := winner.srv.Epoch(); got != wantEpoch {
		t.Fatalf("winner epoch = %d, want %d", got, wantEpoch)
	}

	// The shard works again: writes land on the winner and replicate to the
	// stood-down loser, which adopts the winner's epoch from the shipped
	// RecEpoch record.
	wc := dialRaw(t, winner.addr)
	insertN(t, wc, 4, 100)
	waitCaughtUp(t, winner, loser)
	if got := loser.srv.Epoch(); got != wantEpoch {
		t.Fatalf("loser epoch = %d, want %d (RecEpoch must have shipped)", got, wantEpoch)
	}
	if loserFM.Promoted() {
		t.Fatal("loser promoted after standing down")
	}
	if !loser.srv.ReadOnly() {
		t.Fatal("stood-down loser is writable")
	}
	if got := mFailovers.Value() - failoversBefore; got != 1 {
		t.Fatalf("asdb_failover_total delta = %d, want exactly 1", got)
	}

	// Byte-identical state across the new primary and the survivor.
	lc := dialRaw(t, loser.addr)
	wc2 := dialRaw(t, winner.addr)
	compareReplies(t, wc2, lc, "STATS q1", "STATS q2")
}

// syncBuf is a goroutine-safe log sink for asserting a mechanism engaged.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// A crash-looping primary that repeatedly checkpoints and truncates past a
// partitioned follower's LSN: each heal must fast-forward the follower
// through a snapshot reinstall (never a silent gap skip), and the final
// states must be byte-identical. Two partition rounds prove the
// fast-forward works repeatedly, not just from a virgin follower.
func TestChaosCrashLoopPrimarySnapshotFastForward(t *testing.T) {
	// Checkpoint every 2 records into tiny segments: truncation constantly
	// races ahead of a stalled follower.
	p := startPrimary(t, 1, 2, 256)

	// Every proxied conn has a shipped-byte budget so the live conn dies on
	// its own mid-partition; while partitioned, reconnects die on the first
	// shipped byte.
	var partitioned atomic.Bool
	proxy := shipProxy(t, p.shipAddr, func(i int) fault.ConnFaults {
		if partitioned.Load() {
			return fault.ConnFaults{DropAfterReadBytes: 1}
		}
		return fault.ConnFaults{DropAfterReadBytes: 1200}
	})

	lb := &syncBuf{}
	eng, err := core.NewEngine(engineConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.New(eng, quiet)
	if err != nil {
		t.Fatal(err)
	}
	fsrv.SetOptions(server.Options{ReadOnly: true})
	faddr, err := fsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsrv.Serve()
	f := NewFollower(fsrv, proxy.Addr(), log.New(lb, "", 0), FollowOptions{
		RetryBase: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond, ReadTimeout: 2 * time.Second,
	})
	f.Start()
	fnode := &tnode{srv: fsrv, addr: faddr.String(), f: f}
	t.Cleanup(func() {
		f.Close()
		fsrv.Close()
	})

	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 6, 1)
	waitCaughtUp(t, p, fnode)

	base := 100
	for round := 0; round < 2; round++ {
		partitioned.Store(true)
		// Keep writing until the retention horizon has moved past the
		// stalled follower — the state a plain suffix replay cannot fix.
		deadline := time.Now().Add(10 * time.Second)
		for {
			insertN(t, pc, 4, base)
			base += 4
			oldest, err := p.srv.WAL().OldestLSN()
			if err != nil {
				t.Fatal(err)
			}
			if oldest > f.LastApplied()+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: wal never truncated past the stalled follower (oldest %d, follower %d)",
					round, oldest, f.LastApplied())
			}
			time.Sleep(5 * time.Millisecond)
		}
		partitioned.Store(false)
		waitCaughtUp(t, p, fnode)
		if err := f.Err(); err != nil {
			t.Fatalf("round %d: follower terminal error: %v", round, err)
		}
	}

	// The convergence mechanism must have been the snapshot fast-forward —
	// a follower with state accepting a NEWER snapshot — not a fresh
	// bootstrap and not a skipped gap.
	if got := strings.Count(lb.String(), "fast-forward=true"); got < 2 {
		t.Fatalf("snapshot fast-forwards = %d, want >= 2\nlog:\n%s", got, lb.String())
	}

	// Identical state: if the gap detector ever silently skipped records,
	// the counts and aggregates here would differ. (STATS, not METRICS:
	// telemetry rolling windows live outside the checkpoint, so a
	// fast-forwarded follower legitimately reports shorter ones.)
	pr := dialRaw(t, p.addr)
	fc := dialRaw(t, fnode.addr)
	compareReplies(t, pr, fc, "STATS q1", "STATS q2")
}
