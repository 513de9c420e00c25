package server

// Replication-epoch (fencing) state. The epoch is a monotonic term: it
// starts at 1 and is bumped exactly once per failover, by the promoted
// follower, which journals the transition as a RecEpoch WAL record before
// accepting its first write. Every record of the new epoch therefore sits
// strictly after the RecEpoch boundary, which gives fencing its teeth:
//
//   - a deposed primary that diverged past the boundary can be told the
//     exact LSN to truncate back to (SafeJoinLSN), and
//   - any node that observes a higher epoch than its own knows it has been
//     superseded and must stop accepting writes (Fence) until it rejoins.
//
// The epoch survives crashes because it rides the ordinary durability
// paths: RecEpoch records replay like any other, and checkpoints carry the
// epoch plus the transition history (WAL truncation may drop the RecEpoch
// records themselves once a checkpoint covers them).

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/wal"
)

// errFencedStaleEpoch rejects writes on a deposed primary. The sentinel
// substring "fenced: stale epoch" is load-bearing: the cluster router
// matches it (alongside "read-only replica") to fail writes over to
// the current primary.
var errFencedStaleEpoch = errors.New("fenced: stale epoch: a newer primary was promoted; writes must go to it")

// FencedRejectHook, when non-nil, runs once per write rejected with the
// stale-epoch sentinel. The cluster package points it at its
// asdb_fenced_rejects_total counter from an init function — registering
// the counter there (not here) keeps a single-node server's METRICS key
// set unchanged. Set it before any server serves traffic.
var FencedRejectHook func()

// EpochAdoptHook, when non-nil, observes every epoch transition this node
// adopts — its own promotion, a replayed or replicated RecEpoch record, or
// checkpointed state restored at recovery. The cluster package points it
// at its asdb_cluster_epoch gauge from an init function, for the same
// reason as FencedRejectHook: a follower that stands down and adopts the
// winner's epoch through the shipped WAL must move the gauge too, not
// just nodes that promote.
var EpochAdoptHook func(epoch uint64)

// Epoch returns the current replication epoch (term); 1 until a failover
// bumps it.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Fence marks this node as a deposed primary: a peer presented epoch
// higher (greater than our own), so every write from here on would diverge
// from the cluster's history and is rejected until the node rejoins as a
// follower. Idempotent.
func (s *Server) Fence(higher uint64) {
	if !s.fenced.Swap(true) {
		s.logf("fenced: observed epoch %d > own %d; rejecting writes", higher, s.Epoch())
	}
}

// BumpEpochTo journals a transition to an explicit higher epoch. Promotion
// calls it after the follower apply loop has stopped and before the server
// starts accepting writes, so the RecEpoch record is the exact boundary
// between the old history and the new. The cluster layer picks epochs so
// that no two replicas of a shard can ever journal the same one — equal
// epochs can never fence each other, so distinctness is what makes
// concurrent promotions safe. apply adopts the epoch only once its record
// is durable. Returns the new epoch.
func (s *Server) BumpEpochTo(next uint64) (uint64, error) {
	if cur := s.epoch.Load(); next <= cur {
		return 0, fmt.Errorf("server: epoch bump to %d not above current %d", next, cur)
	}
	_, lsn, err := s.apply(nil, nil, wal.RecEpoch, strconv.FormatUint(next, 10), 0)
	if err != nil {
		return 0, err
	}
	s.logf("promoted: epoch %d begins at lsn %d", next, lsn)
	return next, nil
}

// adoptEpoch records a term transition observed at startLSN — from
// BumpEpochTo, WAL replay, or a replicated RecEpoch record. Lower or equal
// epochs are ignored (transitions are monotonic). Adopting a new epoch
// clears the fence: the node has caught up with the history that
// superseded it.
func (s *Server) adoptEpoch(epoch, startLSN uint64) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if epoch <= s.epoch.Load() {
		return
	}
	s.epochHist = append(s.epochHist, checkpoint.EpochBound{Epoch: epoch, Start: startLSN})
	s.epoch.Store(epoch)
	s.fenced.Store(false)
	if EpochAdoptHook != nil {
		EpochAdoptHook(epoch)
	}
}

// restoreEpoch installs checkpointed epoch state during recovery; RecEpoch
// records in the replayed WAL suffix then advance it via adoptEpoch.
func (s *Server) restoreEpoch(epoch uint64, hist []checkpoint.EpochBound) {
	if epoch <= 1 {
		return
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.epochHist = append([]checkpoint.EpochBound(nil), hist...)
	s.epoch.Store(epoch)
	if EpochAdoptHook != nil {
		EpochAdoptHook(epoch)
	}
}

// epochSnapshot returns the current epoch and a copy of the transition
// history, for embedding in checkpoints.
func (s *Server) epochSnapshot() (uint64, []checkpoint.EpochBound) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epoch.Load(), append([]checkpoint.EpochBound(nil), s.epochHist...)
}

// SafeJoinLSN bounds what a follower reporting (followerEpoch,
// lastApplied) may keep of its log: records below the start of the first
// epoch newer than the follower's are shared history; everything at or
// past that boundary may have diverged and must be truncated. With no
// newer epoch on record the follower's whole prefix is safe.
func (s *Server) SafeJoinLSN(followerEpoch, lastApplied uint64) uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	safe := lastApplied
	for _, b := range s.epochHist {
		if b.Epoch > followerEpoch && b.Start > 0 && b.Start-1 < safe {
			safe = b.Start - 1
		}
	}
	return safe
}

// SetFollowerCountFn injects the live-follower counter the cluster's ship
// server maintains, surfaced by ROLE.
func (s *Server) SetFollowerCountFn(fn func() int) { s.roleFollowers.Store(&fn) }

// SetReplLagFn injects the replication-lag reader the cluster's follower
// maintains (primary frontier minus last applied LSN), surfaced by ROLE.
func (s *Server) SetReplLagFn(fn func() int64) { s.roleLag.Store(&fn) }

// SetReplAddrFn injects the address of this node's replication (WAL-ship)
// listener, surfaced by ROLE as the optional repl= field. Failover managers
// on surviving followers use it to re-point their replication loops at a
// freshly promoted primary.
func (s *Server) SetReplAddrFn(fn func() string) { s.roleRepl.Store(&fn) }

// cmdRole reports failover-relevant state on one line: role
// (primary | follower | fenced), current epoch, live follower count,
// newest local LSN, and replication lag in records. Allowed on every node
// in every state — it is how operators and the router observe a failover
// without scraping metrics.
func (s *Server) cmdRole(c *conn, rest string) error {
	if rest != "" {
		return errors.New("usage: ROLE")
	}
	role := "primary"
	switch {
	case s.fenced.Load():
		role = "fenced"
	case s.readOnly.Load():
		role = "follower"
	}
	var lastLSN uint64
	if w := s.wal.Load(); w != nil {
		lastLSN = w.LastLSN()
	}
	followers := 0
	if fn := s.roleFollowers.Load(); fn != nil {
		followers = (*fn)()
	}
	var lag int64
	if fn := s.roleLag.Load(); fn != nil {
		lag = (*fn)()
	}
	reply := fmt.Sprintf("OK role=%s epoch=%d followers=%d last_lsn=%d lag_records=%d",
		role, s.Epoch(), followers, lastLSN, lag)
	// The repl= field is appended (not inserted) so pre-existing parsers
	// keyed on the first five fields keep working.
	if fn := s.roleRepl.Load(); fn != nil {
		if addr := (*fn)(); addr != "" {
			reply += " repl=" + addr
		}
	}
	return c.writeLine(reply)
}
