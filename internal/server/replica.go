package server

// Replication support: a follower server runs with Options.ReadOnly so
// clients cannot mutate it, and applies records shipped from the primary's
// WAL through ApplyReplicated — apply, the one function live commands and
// crash recovery run too. Because the engine is deterministic (WAL order ==
// engine sequence order, results a pure function of that order), a follower
// that has applied LSN n is byte-identical to the primary at LSN n: DATA
// frames rendered for replica subscribers match the primary's, STATS and
// per-query METRICS replies match, and the replicated @reqid entries make
// the follower's dedup window warm for failover (a routed retry that lands
// on a promoted follower replays the original reply instead of
// double-applying).

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/wal"
)

// errReadOnlyReplica rejects mutating commands on a follower.
var errReadOnlyReplica = errors.New("read-only replica: send writes to the primary")

// WAL exposes the server's write-ahead log for the replication shipping
// layer; nil when the server runs without durability.
func (s *Server) WAL() *wal.Log { return s.wal.Load() }

// Checkpoints exposes the checkpoint manager for the replication shipping
// layer; nil when the server runs without durability.
func (s *Server) Checkpoints() *checkpoint.Manager { return s.ck }

// SetReadOnly flips replica mode at runtime. Promotion flips it off so a
// follower can take writes after the primary fails.
func (s *Server) SetReadOnly(v bool) { s.readOnly.Store(v) }

// ReadOnly reports whether mutating commands are rejected.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// RestoreSnapshot initializes a fresh follower from a shipped checkpoint:
// engine state (streams, windows, RNGs, seq) plus the query registry, with
// every query detached exactly like crash recovery leaves them. It refuses
// to run on a server that already holds state — a follower with state must
// use ReinstallSnapshot (fast-forward) or restart.
func (s *Server) RestoreSnapshot(snap *checkpoint.Snapshot) error {
	release := s.engine.Exclusive()
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queries) > 0 || s.engine.Seq() != 0 || len(s.engine.Streams()) > 0 {
		return errors.New("server: RestoreSnapshot on a non-fresh server")
	}
	return s.installSnapshotLocked(snap)
}

// ReinstallSnapshot fast-forwards a follower that already holds state onto
// a newer primary snapshot. The follower's state at lastApplied ≤ snap.LSN
// is — by the determinism invariant — a strict prefix of the snapshot's,
// so it is discarded wholesale and replaced, never merged. Queries come
// back detached (clients re-ATTACH), exactly like crash recovery. The
// engine runs in recovering mode during the swap so global metrics are not
// double-counted. Used when a crash-looping primary truncated its WAL past
// the follower's position repeatedly: each reconnect lands a newer
// snapshot instead of a terminal resync error.
func (s *Server) ReinstallSnapshot(snap *checkpoint.Snapshot) error {
	release := s.engine.Exclusive()
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.SetRecovering(true)
	defer s.engine.SetRecovering(false)
	s.engine.Clear()
	for id := range s.queries {
		delete(s.queries, id)
	}
	return s.installSnapshotLocked(snap)
}

// installSnapshotLocked restores snapshot state into the (fresh or
// just-cleared) engine; crash recovery, RestoreSnapshot and
// ReinstallSnapshot all restore through it. On a durable follower it also
// re-bases the local WAL and checkpoint set so the node's own recovery
// starts from this snapshot: the records below snap.LSN live in the
// snapshot, not in the local WAL, and the replicated suffix about to be
// journaled must line up with the primary's LSN space. Caller holds
// Exclusive and s.mu, or is recovery, which alone can reach s.
func (s *Server) installSnapshotLocked(snap *checkpoint.Snapshot) error {
	restored, err := checkpoint.Restore(s.engine, snap)
	if err != nil {
		return fmt.Errorf("server: restoring checkpoint (lsn %d): %w", snap.LSN, err)
	}
	for _, r := range restored {
		if err := s.engine.Bind(r.ID, r.Query); err != nil {
			return fmt.Errorf("server: restored query %s: %w", r.ID, err)
		}
		s.queries[r.ID] = &registeredQuery{id: r.ID, sqlText: r.SQL, query: r.Query}
	}
	s.restoreEpoch(snap.Epoch, snap.EpochHist)
	s.dedup.restore(snap.Dedup)
	// The checkpoint is saved before the WAL is re-based: a save that
	// fails or is cut short leaves the old history whole, and a WAL that
	// still ends below the saved checkpoint is re-based by recovery.
	if w := s.wal.Load(); w != nil {
		if s.ck != nil {
			if err := s.ck.Save(snap); err != nil {
				return fmt.Errorf("server: saving shipped checkpoint locally: %w", err)
			}
		}
		if err := w.Reset(snap.LSN + 1); err != nil {
			return fmt.Errorf("server: re-basing wal at snapshot lsn %d: %w", snap.LSN, err)
		}
		s.sinceCk.Store(0)
	}
	s.logf("restored checkpoint lsn=%d (%d streams, %d queries)",
		snap.LSN, len(snap.Streams), len(snap.Queries))
	return nil
}

// ApplyReplicated applies one record shipped from the primary's WAL
// through apply, at the primary's LSN, then fans its DATA lines out to
// replica-side ATTACH/SUBSCRIBE connections once the record is durable
// here. It runs while the follower serves live read traffic, so control
// records quiesce the engine as live commands do. Must be called from a
// single goroutine in LSN order.
func (s *Server) ApplyReplicated(rec wal.Record) error {
	_, lsn, err := s.apply(&s.replScratch, nil, rec.Type, string(rec.Payload), rec.LSN)
	if err == nil {
		err = s.waitDurable(lsn)
	}
	if err != nil {
		dropDeliveries(nil, &s.replScratch)
		return fmt.Errorf("replicated lsn %d (%s): %w", rec.LSN, rec.Type, err)
	}
	// No inserting connection: every line goes to a subscriber's outbox.
	_ = s.sendDeliveries(nil, &s.replScratch, "")
	s.maybeCheckpoint()
	return nil
}
