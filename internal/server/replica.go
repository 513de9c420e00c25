package server

// Replication support: a follower server runs with Options.ReadOnly so
// clients cannot mutate it, and applies records shipped from the primary's
// WAL through ApplyReplicated — the same apply paths live commands and
// crash recovery use. Because the engine is deterministic (WAL order ==
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
	"strconv"
	"strings"

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
// just-cleared) engine and, on a durable follower, re-bases the local WAL
// and checkpoint set so the node's own recovery starts from this snapshot:
// the records below snap.LSN live in the snapshot, not in the local WAL,
// and the replicated suffix about to be journaled must line up with the
// primary's LSN space. Caller holds Exclusive and s.mu.
func (s *Server) installSnapshotLocked(snap *checkpoint.Snapshot) error {
	restored, err := checkpoint.Restore(s.engine, snap)
	if err != nil {
		return fmt.Errorf("server: restoring shipped checkpoint (lsn %d): %w", snap.LSN, err)
	}
	for _, r := range restored {
		if err := s.engine.Bind(r.ID, r.Query); err != nil {
			return fmt.Errorf("server: restored query %s: %w", r.ID, err)
		}
		s.queries[r.ID] = &registeredQuery{id: r.ID, sqlText: r.SQL, query: r.Query}
	}
	s.restoreEpoch(snap.Epoch, snap.EpochHist)
	if w := s.wal.Load(); w != nil {
		if err := w.Reset(snap.LSN + 1); err != nil {
			return fmt.Errorf("server: re-basing wal at snapshot lsn %d: %w", snap.LSN, err)
		}
		if s.ck != nil {
			if err := s.ck.Save(snap); err != nil {
				return fmt.Errorf("server: saving shipped checkpoint locally: %w", err)
			}
		}
		s.sinceCk.Store(0)
	}
	s.logf("replica: restored snapshot lsn=%d (%d streams, %d queries)",
		snap.LSN, len(snap.Streams), len(snap.Queries))
	return nil
}

// ApplyReplicated applies one record shipped from the primary's WAL. Unlike
// crash-recovery replay this runs while the follower serves live read
// traffic, so control records quiesce the engine exactly like their live
// command paths, and ingest results are rendered once and fanned out to
// replica-side ATTACH/SUBSCRIBE connections. Must be called from a single
// goroutine in LSN order.
func (s *Server) ApplyReplicated(rec wal.Record) error {
	payload := string(rec.Payload)
	// Write-through: a durable follower journals every replicated record
	// into its own WAL at the primary's LSN before applying it, so it can
	// recover as a follower without re-shipping history — and, after a
	// promotion, serve as a ship source itself from the shared LSN space.
	// The apply loop is a single goroutine, so journal order trivially
	// equals apply order; an LSN mismatch means the local log diverged and
	// applying further would corrupt it.
	if s.wal.Load() != nil {
		lsn, err := s.journal(rec.Type, payload)
		if err != nil {
			return fmt.Errorf("replicated lsn %d: %w", rec.LSN, err)
		}
		if lsn != rec.LSN {
			return fmt.Errorf("replicated lsn %d: local wal assigned lsn %d (diverged)", rec.LSN, lsn)
		}
		if err := s.waitDurable(lsn); err != nil {
			return fmt.Errorf("replicated lsn %d: %w", rec.LSN, err)
		}
		defer s.maybeCheckpoint()
	}
	switch rec.Type {
	case wal.RecStream:
		release := s.engine.Exclusive()
		_, err := s.applyStream(payload)
		release()
		if err != nil {
			return fmt.Errorf("replicated lsn %d (STREAM): %w", rec.LSN, err)
		}
	case wal.RecQuery:
		id, sqlText := payload, ""
		if idx := strings.IndexByte(payload, ' '); idx >= 0 {
			id, sqlText = payload[:idx], payload[idx+1:]
		}
		release := s.engine.Exclusive()
		s.mu.Lock()
		err := s.applyQueryLocked(id, sqlText, nil)
		s.mu.Unlock()
		release()
		if err != nil {
			return fmt.Errorf("replicated lsn %d (QUERY %s): %w", rec.LSN, id, err)
		}
	case wal.RecInsert, wal.RecInsertBatch:
		batch := rec.Type == wal.RecInsertBatch
		body, reqID := SplitReqID(payload)
		streamName, rows, err := parseInsertRows(body, batch)
		if err != nil {
			return fmt.Errorf("replicated lsn %d (INSERT): %w", rec.LSN, err)
		}
		results, err := s.engine.IngestBatch(streamName, rows, nil)
		if err != nil {
			return fmt.Errorf("replicated lsn %d (INSERT): %w", rec.LSN, err)
		}
		emitted, pushErr := s.planDeliveries(&s.replScratch, nil, results)
		if reqID != "" {
			// Same reply the primary computed (deterministic engine), same
			// LSN: the dedup window stays failover-warm.
			s.dedup.put(reqID, dedupEntry{
				reply: ingestReply(batch, len(rows), emitted, pushErr),
				lsn:   rec.LSN,
			})
		}
		// No inserting connection: every line goes to a subscriber's outbox.
		_ = s.sendDeliveries(nil, &s.replScratch, "")
		if pushErr != nil {
			// The primary hit (and reported) the same deterministic per-query
			// error; the follower's state still matches, so applying continues.
			s.logf("replica lsn %d: %v", rec.LSN, pushErr)
		}
	case wal.RecShed:
		level, err := strconv.Atoi(payload)
		if err != nil {
			return fmt.Errorf("replicated lsn %d (SHED): %w", rec.LSN, err)
		}
		s.engine.SetDegradeLevel(level)
	case wal.RecEpoch:
		// The primary's promotion record: adopt the new epoch at the exact
		// LSN the new history begins (also clears a standing fence — the
		// node has caught up with the history that superseded it).
		if err := s.applyEpochRecord(rec); err != nil {
			return fmt.Errorf("replicated %w", err)
		}
	case wal.RecClose:
		release := s.engine.Exclusive()
		s.mu.Lock()
		err := s.applyCloseLocked(payload)
		s.mu.Unlock()
		release()
		if err != nil {
			return fmt.Errorf("replicated lsn %d (CLOSE): %w", rec.LSN, err)
		}
	default:
		return fmt.Errorf("replicated lsn %d: unknown record type %d", rec.LSN, rec.Type)
	}
	return nil
}
