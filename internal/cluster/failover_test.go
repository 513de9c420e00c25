package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Every node must compute the same promotion ladder from the same
// topology with no communication: the ladder is a pure function of
// (primary, peers), ranks form a permutation, and changing the primary
// reshuffles deterministically.
func TestSuccessorRankAgreement(t *testing.T) {
	peers := []string{"10.0.0.1:7431", "10.0.0.2:7431", "10.0.0.3:7431", "10.0.0.4:7431"}
	primary := "10.0.0.9:7431"

	seen := make(map[int]string)
	for _, self := range peers {
		r := successorRank(primary, self, peers)
		if r < 0 || r >= len(peers) {
			t.Fatalf("rank of %s = %d, want 0..%d", self, r, len(peers)-1)
		}
		if prev, dup := seen[r]; dup {
			t.Fatalf("rank %d assigned to both %s and %s", r, prev, self)
		}
		seen[r] = self
	}
	// Agreement: any node computing any peer's rank gets the same answer
	// (successorRank is pure, but assert the property the design rests on).
	for _, self := range peers {
		if got := successorRank(primary, self, peers); seen[got] != self {
			t.Fatalf("ladder disagreement for %s", self)
		}
	}
	// A node absent from the peer list ranks last.
	if got := successorRank(primary, "10.0.0.99:7431", peers); got != len(peers) {
		t.Fatalf("absent self rank = %d, want %d", got, len(peers))
	}
	// Stability: same inputs, same ladder.
	for _, self := range peers {
		if a, b := successorRank(primary, self, peers), successorRank(primary, self, peers); a != b {
			t.Fatalf("rank of %s unstable: %d vs %d", self, a, b)
		}
	}
}

// rankedPeer returns the peer whose rank equals want under primary.
func rankedPeer(t *testing.T, primary string, peers []string, want int) string {
	t.Helper()
	for _, p := range peers {
		if successorRank(primary, p, peers) == want {
			return p
		}
	}
	t.Fatalf("no peer with rank %d", want)
	return ""
}

// The failure detector's state machine, driven tick by tick with an
// injected clock: silence below one SuspectAfter window is fine; between
// the window and this node's graded threshold it only counts a heartbeat
// miss; past the threshold it promotes — exactly once — by journaling an
// epoch bump before going writable.
func TestFailoverManagerTickPromotesOnce(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	// A follower that is wired but never started: LastContact stays zero,
	// so the detector measures silence from its construction-time grace.
	f := NewFollower(p.srv, "127.0.0.1:1", quiet, FollowOptions{})

	peers := []string{"a:1", "b:1", "c:1"}
	self := rankedPeer(t, "pri:1", peers, 1) // threshold = 2 * SuspectAfter
	t0 := time.Unix(1000, 0)
	now := t0
	m := NewFailoverManager(p.srv, f, quiet, FailoverOptions{
		Self:         self,
		Primary:      "pri:1",
		Peers:        peers,
		SuspectAfter: 100 * time.Millisecond,
		Now:          func() time.Time { return now },
		// The whole ladder above is dead: probes fail, clearing promotion.
		ProbeRole: func(string, time.Duration) (server.RoleInfo, error) {
			return server.RoleInfo{}, fmt.Errorf("connection refused")
		},
	})
	if m.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", m.Rank())
	}
	wantEpoch := nextCongruentEpoch(1, self, peers)

	missesBefore := mHeartbeatMisses.Value()
	failoversBefore := mFailovers.Value()

	// Within one window: quiet is normal.
	if m.tick(t0.Add(50 * time.Millisecond)) {
		t.Fatal("promoted inside the first SuspectAfter window")
	}
	if got := mHeartbeatMisses.Value() - missesBefore; got != 0 {
		t.Fatalf("heartbeat misses after quiet tick = %d, want 0", got)
	}

	// Past one window but under rank 1's threshold: suspect, don't act.
	if m.tick(t0.Add(150 * time.Millisecond)) {
		t.Fatal("rank 1 promoted before its graded threshold")
	}
	if got := mHeartbeatMisses.Value() - missesBefore; got != 1 {
		t.Fatalf("heartbeat misses = %d, want 1", got)
	}
	if p.srv.Epoch() != 1 {
		t.Fatalf("epoch moved to %d before promotion", p.srv.Epoch())
	}

	// Past the threshold: promote. Epoch bumps and the server is writable.
	if !m.tick(t0.Add(250 * time.Millisecond)) {
		t.Fatal("rank 1 did not promote past 2*SuspectAfter of silence")
	}
	if !m.Promoted() {
		t.Fatal("Promoted() = false after promotion")
	}
	if got := p.srv.Epoch(); got != wantEpoch {
		t.Fatalf("epoch after promotion = %d, want %d", got, wantEpoch)
	}
	if p.srv.ReadOnly() {
		t.Fatal("server still read-only after promotion")
	}
	if got := mFailovers.Value() - failoversBefore; got != 1 {
		t.Fatalf("asdb_failover_total delta = %d, want 1", got)
	}

	// Idempotence: further ticks never re-promote or re-bump.
	if m.tick(t0.Add(10 * time.Second)) {
		t.Fatal("tick reported a second promotion")
	}
	if got := p.srv.Epoch(); got != wantEpoch {
		t.Fatalf("epoch re-bumped to %d", got)
	}
	if got := mFailovers.Value() - failoversBefore; got != 1 {
		t.Fatalf("asdb_failover_total delta after extra ticks = %d, want 1", got)
	}
}

// Rank 0 — the designated successor — acts after a single window.
func TestFailoverManagerRankZeroThreshold(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	f := NewFollower(p.srv, "127.0.0.1:1", quiet, FollowOptions{})
	peers := []string{"a:1", "b:1", "c:1"}
	self := rankedPeer(t, "pri:1", peers, 0)
	t0 := time.Unix(2000, 0)
	m := NewFailoverManager(p.srv, f, quiet, FailoverOptions{
		Self: self, Primary: "pri:1", Peers: peers,
		SuspectAfter: 100 * time.Millisecond,
		Now:          func() time.Time { return t0 },
	})
	if m.Rank() != 0 {
		t.Fatalf("rank = %d, want 0", m.Rank())
	}
	if m.tick(t0.Add(99 * time.Millisecond)) {
		t.Fatal("rank 0 promoted before one full window")
	}
	if !m.tick(t0.Add(101 * time.Millisecond)) {
		t.Fatal("rank 0 did not promote after one window")
	}
	if want := nextCongruentEpoch(1, self, peers); p.srv.Epoch() != want {
		t.Fatalf("epoch = %d, want %d", p.srv.Epoch(), want)
	}
}

// A lower-ranked node whose survey finds an already promoted higher rank
// must stand down instead of promoting: no second epoch bump, the follower
// re-points at the winner's ship address, and the suspicion episode resets
// so the node does not immediately re-survey.
func TestFailoverStandsDownForPromotedPeer(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	f := NewFollower(p.srv, "127.0.0.1:1", quiet, FollowOptions{})
	peers := []string{"a:1", "b:1", "c:1"}
	self := rankedPeer(t, "pri:1", peers, 1)
	t0 := time.Unix(3000, 0)
	probes := 0
	m := NewFailoverManager(p.srv, f, quiet, FailoverOptions{
		Self: self, Primary: "pri:1", Peers: peers,
		SuspectAfter: 100 * time.Millisecond,
		Now:          func() time.Time { return t0 },
		ProbeRole: func(addr string, _ time.Duration) (server.RoleInfo, error) {
			probes++
			return server.RoleInfo{Role: "primary", Epoch: 7, ReplAddr: "127.0.0.1:9"}, nil
		},
	})
	failoversBefore := mFailovers.Value()

	if m.tick(t0.Add(250 * time.Millisecond)) {
		t.Fatal("promoted despite a live promoted peer above")
	}
	if m.Promoted() {
		t.Fatal("Promoted() = true after stand-down")
	}
	if probes != 1 {
		t.Fatalf("survey probes = %d, want 1", probes)
	}
	if got := p.srv.Epoch(); got != 1 {
		t.Fatalf("epoch moved to %d on the stood-down node", got)
	}
	if got := f.Target(); got != "127.0.0.1:9" {
		t.Fatalf("follower target = %q, want the winner's ship addr", got)
	}
	if got := mFailovers.Value() - failoversBefore; got != 0 {
		t.Fatalf("asdb_failover_total delta = %d, want 0", got)
	}

	// The stand-down reset the silence measurement: a tick shortly after
	// must not survey again.
	if m.tick(t0.Add(300 * time.Millisecond)) {
		t.Fatal("promoted right after standing down")
	}
	if probes != 1 {
		t.Fatalf("probes after grace reset = %d, want 1 (no new survey)", probes)
	}

	// If the winner then goes silent too, a fresh suspicion episode starts
	// from the stand-down time and surveys again.
	if m.tick(t0.Add(600 * time.Millisecond)) {
		t.Fatal("promoted while the new primary answers probes")
	}
	if probes != 2 {
		t.Fatalf("probes after a fresh episode = %d, want 2", probes)
	}
}

// A lower-ranked node defers while a higher rank is alive but undecided,
// and proceeds only once the ladder above is fully unreachable.
func TestFailoverDefersToLivePeer(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	f := NewFollower(p.srv, "127.0.0.1:1", quiet, FollowOptions{})
	peers := []string{"a:1", "b:1", "c:1"}
	self := rankedPeer(t, "pri:1", peers, 1)
	t0 := time.Unix(4000, 0)
	alive := true
	m := NewFailoverManager(p.srv, f, quiet, FailoverOptions{
		Self: self, Primary: "pri:1", Peers: peers,
		SuspectAfter: 100 * time.Millisecond,
		Now:          func() time.Time { return t0 },
		ProbeRole: func(addr string, _ time.Duration) (server.RoleInfo, error) {
			if alive {
				return server.RoleInfo{Role: "follower", Epoch: 1}, nil
			}
			return server.RoleInfo{}, fmt.Errorf("connection refused")
		},
	})
	for _, dt := range []time.Duration{250, 350, 450} {
		if m.tick(t0.Add(dt * time.Millisecond)) {
			t.Fatalf("promoted at +%dms despite a live higher rank", dt)
		}
	}
	// The higher rank dies without ever promoting: now it is this node's
	// turn.
	alive = false
	if !m.tick(t0.Add(550 * time.Millisecond)) {
		t.Fatal("did not promote once the ladder above was dead")
	}
	if want := nextCongruentEpoch(1, self, peers); p.srv.Epoch() != want {
		t.Fatalf("epoch = %d, want %d", p.srv.Epoch(), want)
	}
}

// The congruence scheme is what makes concurrent promotions safe: any two
// replicas of a shard pick distinct epochs from any pair of starting
// epochs, so their histories can always fence each other.
func TestCongruentEpochsDistinct(t *testing.T) {
	peerSets := [][]string{
		{"a:1", "b:1"},
		{"a:1", "b:1", "c:1"},
		{"c:1", "a:1", "b:1", "d:1", "e:1"}, // unsorted on purpose
	}
	for _, peers := range peerSets {
		for _, curA := range []uint64{1, 2, 5} {
			for _, curB := range []uint64{1, 2, 5} {
				for i, selfA := range peers {
					for j, selfB := range peers {
						if i == j {
							continue
						}
						ea := nextCongruentEpoch(curA, selfA, peers)
						eb := nextCongruentEpoch(curB, selfB, peers)
						if ea <= curA || eb <= curB {
							t.Fatalf("epoch not above current: %s@%d->%d, %s@%d->%d", selfA, curA, ea, selfB, curB, eb)
						}
						if ea == eb {
							t.Fatalf("peers %v: %s@%d and %s@%d both picked epoch %d", peers, selfA, curA, selfB, curB, ea)
						}
					}
				}
			}
		}
	}
	// Duplicate entries collapse into one residue class.
	if a, b := nextCongruentEpoch(1, "a:1", []string{"a:1", "a:1", "b:1"}),
		nextCongruentEpoch(1, "b:1", []string{"a:1", "a:1", "b:1"}); a == b {
		t.Fatalf("duplicate peers broke distinctness: both picked %d", a)
	}
	// A single-replica shard keeps the simple +1 epoch.
	if got := nextCongruentEpoch(1, "a:1", []string{"a:1"}); got != 2 {
		t.Fatalf("single-replica epoch = %d, want 2", got)
	}
}

// Live frames reset the detector: as long as the follower hears the
// primary, no amount of wall-clock time triggers a promotion.
func TestFailoverManagerContactSuppresses(t *testing.T) {
	p := startPrimary(t, 1, 0, 0)
	f := startFollower(t, 1, p.shipAddr)
	m := NewFailoverManager(f.srv, f.f, quiet, FailoverOptions{
		Self: "a:1", Primary: "pri:1", Peers: []string{"a:1"},
		SuspectAfter: 80 * time.Millisecond,
	})
	// Heartbeats flow every 10ms; across several windows of real time the
	// detector must stay quiet.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if m.tick(time.Now()) {
			t.Fatal("promoted while the primary was alive and heartbeating")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.srv.Epoch() != 1 {
		t.Fatalf("follower epoch = %d, want 1", f.srv.Epoch())
	}
}

// removeTree (the rejoin wipe) goes through the injected filesystem and
// surfaces every failure: a partial wipe must abort the rejoin, never
// proceed into recovery over inconsistent state.
func TestRemoveTreeSurfacesInjectedFailure(t *testing.T) {
	build := func() string {
		dir := t.TempDir()
		sub := filepath.Join(dir, "tree", "nested")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{
			filepath.Join(dir, "tree", "a.dat"),
			filepath.Join(sub, "b.dat"),
		} {
			if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dir, "tree")
	}

	// Injected removal failure: the wipe reports it.
	tree := build()
	ifs := fault.NewInjectFS(nil, fault.Rule{Op: fault.OpRemove, Path: ".dat", Count: 1, Err: fault.ErrFsync})
	if err := removeTree(ifs, tree); err == nil {
		t.Fatal("removeTree swallowed an injected removal failure")
	}

	// Healthy filesystem: the whole tree goes, and a second wipe of the
	// now-missing dir is success (idempotent).
	tree = build()
	fs := fault.NewInjectFS(nil)
	if err := removeTree(fs, tree); err != nil {
		t.Fatalf("removeTree on healthy fs: %v", err)
	}
	if _, err := os.Stat(tree); !os.IsNotExist(err) {
		t.Fatalf("tree still present after removeTree (stat err %v)", err)
	}
	if err := removeTree(fs, tree); err != nil {
		t.Fatalf("removeTree of a missing dir: %v", err)
	}
}

// The four failover metrics are registered in the default registry so the
// -debug-addr exposition serves them.
func TestFailoverMetricsRegistered(t *testing.T) {
	snap := metrics.Default.Snapshot()
	for _, name := range []string{
		"asdb_failover_total",
		"asdb_fenced_rejects_total",
		"asdb_heartbeat_misses_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
	if _, ok := snap.Gauges["asdb_cluster_epoch"]; !ok {
		t.Error("gauge asdb_cluster_epoch not registered")
	}
}

// Regression for the ship-server pin leak: a peer that completes the SYNC
// handshake and dies (never reading the snapshot or stream) must not hold
// its WAL pin — the watchdog that closes the conn on peer death starts
// BEFORE the pinning handshake, so the blocked writes fail fast and the
// deferred release runs. With the pins gone, checkpoint truncation
// reclaims segments again.
func TestShipPinReleasedOnDeadFollower(t *testing.T) {
	// Small checkpoint interval and tiny segments (a handful of records
	// each) so checkpoints seal and truncation actually prunes.
	p := startPrimary(t, 1, 4, 256)
	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 12, 1)

	// A spread of half-handshake deaths: close instantly after SYNC, close
	// after reading one line, and close with the handshake half-written.
	for i := 0; i < 4; i++ {
		nc, err := net.DialTimeout("tcp", p.shipAddr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			fmt.Fprintf(nc, "SYNC 0 1\n") // dies without reading the reply
		case 1:
			fmt.Fprintf(nc, "SYNC 0 1\n")
			b := make([]byte, 64)
			nc.Read(b)
		case 2:
			fmt.Fprintf(nc, "SYN") // torn handshake
		}
		nc.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for p.srv.WAL().Pins() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ship server still holds %d WAL pins after all followers died", p.srv.WAL().Pins())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And retention works again: more inserts cross checkpoint boundaries,
	// after which the oldest retained LSN must advance past 1.
	insertN(t, pc, 12, 100)
	deadline = time.Now().Add(5 * time.Second)
	for {
		oldest, err := p.srv.WAL().OldestLSN()
		if err != nil {
			t.Fatal(err)
		}
		if oldest > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wal never truncated (oldest still %d) after pins released", oldest)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
