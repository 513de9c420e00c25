package cluster

// Automatic failover without an external coordinator (ISSUE 10). Each
// replica runs a FailoverManager: a failure detector over its Follower's
// last-contact clock plus a deterministic promotion ladder. Safety comes
// from epoch fencing, not from perfect detection — a false-positive
// promotion bumps the epoch, and the epoch'd ship protocol then fences the
// surviving old primary the moment anything carrying the newer epoch
// reaches it, so two writable nodes cannot both keep accepting writes that
// anyone will replicate. Liveness comes from the graded ladder: the
// designated successor (rank 0) promotes after one SuspectAfter window of
// silence, rank k waits k extra windows, so a dead successor only delays
// failover, never wedges it.
//
// Two mechanisms keep concurrent promotions from producing equal epochs
// (equal epochs can never fence each other, so they are the one shape of
// split-brain fencing cannot repair):
//
//   - Before acting, a non-zero rank surveys the ladder above it with ROLE
//     probes: if a higher rank already promoted, this node stands down and
//     re-points its follower at the winner; if a higher rank is alive but
//     undecided, this node keeps waiting; only an all-dead ladder above
//     clears it to promote.
//   - The promotion epoch itself is congruence-partitioned: each replica
//     may only journal epochs congruent to its index in the sorted peer
//     list (mod the peer count), so even promotions racing through a fully
//     partitioned ladder pick DISTINCT epochs — when the histories meet,
//     the lower epoch is fenced and rejoins, exactly like any deposed
//     primary.

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/server"
)

// successorRank orders a shard's replicas into a deterministic promotion
// ladder with no coordination: every replica ranks the peer set by
// mix64(hash64(peer) ^ hash64(primary)) descending — the same
// highest-random-weight math rendezvous placement uses, so any two nodes
// computing the ladder agree — with lexicographic tie-break, and returns
// self's position. Rank 0 is the designated successor. A peer not in the
// list ranks after everyone (len(peers)).
func successorRank(primary, self string, peers []string) int {
	type pw struct {
		addr string
		w    uint64
	}
	ph := hash64(primary)
	ranked := make([]pw, 0, len(peers))
	for _, p := range peers {
		ranked = append(ranked, pw{p, mix64(hash64(p) ^ ph)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].w != ranked[j].w {
			return ranked[i].w > ranked[j].w
		}
		return ranked[i].addr < ranked[j].addr
	})
	for i, p := range ranked {
		if p.addr == self {
			return i
		}
	}
	return len(ranked)
}

// probeRole is the default ladder prober: one ROLE round trip on the
// peer's client address, dial and exchange each bounded by timeout.
func probeRole(addr string, timeout time.Duration) (server.RoleInfo, error) {
	cl, err := server.DialOpts(addr, server.DialOptions{DialTimeout: timeout, OpTimeout: timeout})
	if err != nil {
		return server.RoleInfo{}, err
	}
	defer cl.Close()
	return cl.Role()
}

// FailoverOptions configures one replica's failure detector. Zero values
// mean defaults.
type FailoverOptions struct {
	// Self is this replica's identity (its client address as listed in the
	// topology); Primary the watched primary's; Peers every replica of the
	// shard, including Self. They feed the deterministic ladder, the
	// pre-promotion survey (peer addresses are ROLE-probed), and the
	// congruence classes that keep concurrent promotion epochs distinct —
	// so every replica must be configured with the SAME peer set.
	Self    string
	Primary string
	Peers   []string
	// SuspectAfter is the silence threshold: rank 0 promotes after one
	// window, rank k after (1+k) windows (default 1s).
	SuspectAfter time.Duration
	// ProbeEvery is the detector tick (default 100ms).
	ProbeEvery time.Duration
	// Now is the detector's clock; injectable so chaos tests drive the
	// state machine deterministically (default time.Now).
	Now func() time.Time
	// OnPromote runs after a successful promotion (e.g. to start a ship
	// listener on the new primary).
	OnPromote func(epoch uint64)
	// ProbeRole surveys one higher-ranked peer before promoting;
	// injectable for tests (default: a real ROLE round trip).
	ProbeRole func(addr string, timeout time.Duration) (server.RoleInfo, error)
}

func (o FailoverOptions) normalize() FailoverOptions {
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = time.Second
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 100 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.ProbeRole == nil {
		o.ProbeRole = probeRole
	}
	// The congruence scheme requires Self to occupy one of the classes;
	// tolerate configs that list only the OTHER replicas in Peers.
	if o.Self != "" && !contains(o.Peers, o.Self) {
		o.Peers = append(append([]string(nil), o.Peers...), o.Self)
	}
	return o
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// FailoverManager turns a follower into a primary when the primary goes
// silent. Detection is purely local: the follower's LastContact clock
// (every shipped frame and successful dial refreshes it) measured against
// the graded threshold.
type FailoverManager struct {
	srv    *server.Server
	f      *Follower
	logger *log.Logger
	opts   FailoverOptions
	rank   int
	higher []string  // peers ranked above self, surveyed before promoting
	grace  time.Time // floor for LastContact; reset on construction and stand-down

	missWindows int // SuspectAfter windows already counted this suspicion episode

	promoted atomic.Bool
	stopCh   chan struct{}
	done     chan struct{}
	once     sync.Once
	stopOnce sync.Once
}

// NewFailoverManager wires a detector for a follower of srv's shard. Call
// Start to begin probing.
func NewFailoverManager(srv *server.Server, f *Follower, logger *log.Logger, opts FailoverOptions) *FailoverManager {
	opts = opts.normalize()
	m := &FailoverManager{
		srv:    srv,
		f:      f,
		logger: logger,
		opts:   opts,
		rank:   successorRank(opts.Primary, opts.Self, opts.Peers),
		grace:  opts.Now(),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, p := range opts.Peers {
		if p != opts.Self && successorRank(opts.Primary, p, opts.Peers) < m.rank {
			m.higher = append(m.higher, p)
		}
	}
	sort.Slice(m.higher, func(i, j int) bool {
		return successorRank(opts.Primary, m.higher[i], opts.Peers) <
			successorRank(opts.Primary, m.higher[j], opts.Peers)
	})
	gEpoch.Set(int64(srv.Epoch()))
	return m
}

// Rank returns this replica's position on the promotion ladder (0 = the
// designated successor).
func (m *FailoverManager) Rank() int { return m.rank }

// Promoted reports whether this manager has promoted its server.
func (m *FailoverManager) Promoted() bool { return m.promoted.Load() }

// threshold is the silence that triggers promotion at this node's rank.
func (m *FailoverManager) threshold() time.Duration {
	return m.opts.SuspectAfter * time.Duration(1+m.rank)
}

// Start launches the probe loop; it exits on Stop or after promoting.
func (m *FailoverManager) Start() {
	m.once.Do(func() { go m.run() })
}

// Stop halts probing (idempotent; no-op after a promotion already ended
// the loop).
func (m *FailoverManager) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	<-m.done
}

func (m *FailoverManager) run() {
	defer close(m.done)
	t := time.NewTicker(m.opts.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			if m.tick(m.opts.Now()) {
				return
			}
		}
	}
}

// tick advances the detector: one probe at time now. Returns true when the
// probe ended in a promotion. Split out (with the injectable clock) so
// tests can drive kill→detect→promote sequences without real sleeps.
func (m *FailoverManager) tick(now time.Time) bool {
	if m.promoted.Load() {
		return false
	}
	last := m.f.LastContact()
	if last.Before(m.grace) {
		last = m.grace
	}
	silence := now.Sub(last)
	if silence < m.opts.SuspectAfter {
		m.missWindows = 0
		return false
	}
	// Count each fully crossed SuspectAfter window exactly once, so the
	// counter measures missed heartbeat windows — independent of how often
	// the detector ticks during one suspicion episode.
	if w := int(silence / m.opts.SuspectAfter); w > m.missWindows {
		mHeartbeatMisses.Add(uint64(w - m.missWindows))
		m.missWindows = w
	}
	if silence < m.threshold() {
		return false
	}
	switch verdict, winner := m.surveyLadder(); verdict {
	case ladderPromoted:
		m.standDown(now, winner)
		return false
	case ladderAlive:
		// A better-ranked peer is alive but has not promoted. Either it
		// will (its threshold fires before ours), or it still hears the
		// primary (we are partitioned from the primary, not the cluster) —
		// in both cases promoting here would be the wrong node acting.
		return false
	}
	m.promote()
	return m.promoted.Load()
}

// ladderVerdict is the outcome of surveying the ladder above this node.
type ladderVerdict int

const (
	ladderDead     ladderVerdict = iota // every higher-ranked peer unreachable
	ladderAlive                         // a higher rank is alive but undecided
	ladderPromoted                      // a higher rank already promoted
)

// surveyLadder probes every peer ranked above self. Rank 0 has an empty
// ladder and is always clear to act.
func (m *FailoverManager) surveyLadder() (ladderVerdict, server.RoleInfo) {
	verdict := ladderDead
	for _, addr := range m.higher {
		rp, err := m.opts.ProbeRole(addr, m.probeTimeout())
		if err != nil {
			continue
		}
		if rp.Role == "primary" && rp.Epoch > m.srv.Epoch() {
			return ladderPromoted, rp
		}
		verdict = ladderAlive
	}
	return verdict, server.RoleInfo{}
}

// probeTimeout bounds one survey probe: half a suspicion window, clamped
// so the default 100ms test configs still get a usable dial timeout.
func (m *FailoverManager) probeTimeout() time.Duration {
	d := m.opts.SuspectAfter / 2
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// standDown records that a higher-ranked peer won the promotion race: the
// suspicion episode ends (grace resets so the detector starts a fresh
// silence measurement) and the follower is re-pointed at the winner's ship
// listener, whose stream will refresh LastContact from here on.
func (m *FailoverManager) standDown(now time.Time, winner server.RoleInfo) {
	m.grace = now
	m.missWindows = 0
	if winner.ReplAddr != "" && m.f.Target() != winner.ReplAddr {
		m.logf("failover: rank %d standing down; following promoted peer at %s (epoch %d)",
			m.rank, winner.ReplAddr, winner.Epoch)
		m.f.Retarget(winner.ReplAddr)
	}
}

// nextCongruentEpoch picks the promotion epoch: the smallest epoch above
// cur congruent to self's index in the sorted, deduplicated peer list
// (modulo the peer count). Each replica owns a disjoint residue class, so
// two replicas can NEVER journal the same epoch no matter how their
// promotions interleave — and distinct epochs fence: when two self-promoted
// histories meet, the lower epoch is deposed and rejoins. A single-replica
// shard degenerates to cur+1.
func nextCongruentEpoch(cur uint64, self string, peers []string) uint64 {
	uniq := append([]string(nil), peers...)
	sort.Strings(uniq)
	n, idx := 0, -1
	for i, p := range uniq {
		if i > 0 && p == uniq[i-1] {
			continue
		}
		if p == self {
			idx = n
		}
		n++
	}
	if n <= 1 || idx < 0 {
		return cur + 1
	}
	next := cur + 1
	for next%uint64(n) != uint64(idx) {
		next++
	}
	return next
}

// promote executes the safe promotion sequence: stop the apply loop first
// (no replicated apply may race the new history), journal the epoch bump
// durably (the RecEpoch record is both the fence token's birth certificate
// and the LSN where the new history starts), and only then accept writes.
// If journaling fails the node stays a read-only follower and the next
// tick retries.
func (m *FailoverManager) promote() {
	m.f.Close()
	next := nextCongruentEpoch(m.srv.Epoch(), m.opts.Self, m.opts.Peers)
	epoch, err := m.srv.BumpEpochTo(next)
	if err != nil {
		m.logf("failover: epoch bump failed, staying read-only: %v", err)
		return
	}
	m.srv.SetReadOnly(false)
	m.promoted.Store(true)
	mFailovers.Inc()
	m.logf("failover: promoted at lsn %d, epoch %d (rank %d, primary %s silent)",
		m.f.LastApplied(), epoch, m.rank, m.opts.Primary)
	if m.opts.OnPromote != nil {
		m.opts.OnPromote(epoch)
	}
}

func (m *FailoverManager) logf(format string, args ...any) {
	if m.logger != nil {
		m.logger.Printf(format, args...)
	}
}

// Rejoin turns a fenced ex-primary back into a follower of the new one.
// Preconditions: old's follower loop returned re (so the primary told us
// exactly where the histories fork), old's own ship listener is closed (a
// live ship pin would block the truncation), and old is fenced (no writes
// are landing). The driver cuts the diverged WAL suffix after re.SafeLSN,
// drops checkpoints past it, detaches the old server WITHOUT a shutdown
// checkpoint (which would re-capture the diverged state), and re-recovers
// from the surviving prefix — or, when that recovery finds a gap
// (server.ErrHistoryGap: the dropped checkpoints were the only cover for
// already-pruned WAL records), wipes and lets the snapshot bootstrap
// rebuild from the new primary. The returned follower is wired but not
// started: callers Listen/Serve the new server, then f.Start().
func Rejoin(old *server.Server, cfg core.Config, re *RejoinError, logger *log.Logger, primaryShipAddr string, fopts FollowOptions) (*server.Server, *Follower, error) {
	w := old.WAL()
	if w == nil || cfg.DataDir == "" {
		return nil, nil, errors.New("cluster: rejoin requires a durable server")
	}
	if err := w.TruncateSuffix(re.SafeLSN); err != nil {
		return nil, nil, fmt.Errorf("cluster: truncating diverged wal suffix after %d: %w", re.SafeLSN, err)
	}
	ck := old.Checkpoints()
	if ck != nil {
		if err := ck.DropAfter(re.SafeLSN); err != nil {
			return nil, nil, fmt.Errorf("cluster: dropping diverged checkpoints: %w", err)
		}
	}
	if err := old.Detach(); err != nil && logger != nil {
		logger.Printf("rejoin: detaching old server: %v", err)
	}
	recoverNode := func() (*server.Server, error) {
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		return server.NewDurableFS(eng, logger, w.FS())
	}
	srv, err := recoverNode()
	if errors.Is(err, server.ErrHistoryGap) {
		if logger != nil {
			logger.Printf("rejoin: %v; resyncing from scratch", err)
		}
		// The wipe goes through the WAL's filesystem (the injected fault.FS
		// when one is in play) and every error is fatal: recovering over a
		// partially wiped data dir could resurrect the diverged state the
		// wipe was meant to discard.
		for _, sub := range []string{"wal", "checkpoints"} {
			if err := removeTree(w.FS(), filepath.Join(cfg.DataDir, sub)); err != nil {
				return nil, nil, fmt.Errorf("cluster: rejoin wipe of %s: %w", sub, err)
			}
		}
		srv, err = recoverNode()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: rejoin recovery: %w", err)
	}
	srv.SetOptions(server.Options{ReadOnly: true})
	f := NewFollower(srv, primaryShipAddr, logger, fopts)
	f.SetLastApplied(srv.WAL().LastLSN())
	return srv, f, nil
}

// removeTree deletes dir recursively through the injected filesystem, so
// fault-injection schedules cover the rejoin wipe. A missing dir is
// success; any failed removal is an error for the caller to treat as
// fatal.
func removeTree(fs fault.FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		if e.IsDir() {
			if err := removeTree(fs, p); err != nil {
				return err
			}
			continue
		}
		if err := fs.Remove(p); err != nil {
			return err
		}
	}
	return fs.Remove(dir)
}
