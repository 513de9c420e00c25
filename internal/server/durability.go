package server

// Durability wiring: NewDurable opens the engine's DataDir, loads the
// latest valid checkpoint, deterministically replays the write-ahead-log
// suffix through the same apply paths live commands use, and then turns on
// journaling. Because the engine RNGs are seeded from the engine
// configuration and every consumer of randomness is restored (checkpointed
// RNG states) or re-executed (WAL replay), a recovered server is
// bit-identical to one that never crashed: the same inserts produce the
// same results.
//
// Replay runs with Engine.SetRecovering(true), which reroutes the
// steady-state ingest/push metrics to a dedicated recovery counter, so a
// recovered process reports the same metric values as one that never
// crashed (asserted by TestRecoveryMetricsParity).

import (
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
)

// NewDurable returns a server honoring the engine's durability
// configuration. With Config.DataDir empty it behaves exactly like New;
// otherwise it recovers state from <DataDir>/checkpoints and <DataDir>/wal
// and journals every subsequent state-changing command. Recovered queries
// are detached (no owning connection); clients re-acquire result delivery
// with ATTACH <id>.
func NewDurable(engine *core.Engine, logger *log.Logger) (*Server, error) {
	return NewDurableFS(engine, logger, nil)
}

// NewDurableFS is NewDurable over an injectable filesystem (nil = the real
// one). The fault-injection harness uses it to drive the whole durability
// stack — WAL appends, fsyncs, checkpoint renames — through seeded fault
// schedules without touching the OS.
func NewDurableFS(engine *core.Engine, logger *log.Logger, fs fault.FS) (*Server, error) {
	s, err := New(engine, logger)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config()
	if cfg.DataDir == "" {
		return s, nil
	}
	policy, err := wal.ParseFsyncPolicy(cfg.FsyncPolicy)
	if err != nil {
		return nil, err
	}
	ckm, err := checkpoint.NewManagerFS(filepath.Join(cfg.DataDir, "checkpoints"), fs)
	if err != nil {
		return nil, err
	}
	snap, err := ckm.LoadLatest()
	if err != nil {
		return nil, err
	}
	engine.SetRecovering(true)
	defer engine.SetRecovering(false)
	from := uint64(1)
	if snap != nil {
		restored, err := checkpoint.Restore(engine, snap)
		if err != nil {
			return nil, fmt.Errorf("server: restoring checkpoint (lsn %d): %w", snap.LSN, err)
		}
		for _, r := range restored {
			if err := engine.Bind(r.ID, r.Query); err != nil {
				return nil, fmt.Errorf("server: restored query %s: %w", r.ID, err)
			}
			s.queries[r.ID] = &registeredQuery{id: r.ID, sqlText: r.SQL, query: r.Query}
		}
		from = snap.LSN + 1
		s.restoreEpoch(snap.Epoch, snap.EpochHist)
		s.logf("recovery: checkpoint lsn=%d (%d streams, %d queries)",
			snap.LSN, len(snap.Streams), len(snap.Queries))
	}
	wlog, err := wal.Open(filepath.Join(cfg.DataDir, "wal"), wal.Options{Policy: policy, FS: fs, SegmentBytes: cfg.WALSegmentBytes})
	if err != nil {
		return nil, err
	}
	if n := wlog.TruncatedBytes(); n > 0 {
		s.logf("recovery: truncated %d torn-tail bytes from the WAL", n)
	}
	replayed := 0
	if err := wlog.Replay(from, func(rec wal.Record) error {
		replayed++
		return s.applyRecord(rec)
	}); err != nil {
		wlog.Close()
		return nil, fmt.Errorf("server: wal replay: %w", err)
	}
	s.logf("recovery: replayed %d wal records (lsn %d..%d)", replayed, from, wlog.LastLSN())
	s.wal.Store(wlog)
	s.ck = ckm
	s.ckEvery = cfg.CheckpointEvery
	return s, nil
}

// applyRecord re-executes one journaled command during recovery, through
// the same code paths live commands use. Recovery is single-threaded, so
// the Exclusive quiesce live commands need is unnecessary here; s.mu is
// taken only around registry mutations.
func (s *Server) applyRecord(rec wal.Record) error {
	payload := string(rec.Payload)
	switch rec.Type {
	case wal.RecStream:
		if _, err := s.applyStream(payload); err != nil {
			return fmt.Errorf("lsn %d (STREAM): %w", rec.LSN, err)
		}
	case wal.RecQuery:
		id, sqlText := payload, ""
		if idx := indexByteSpace(payload); idx >= 0 {
			id, sqlText = payload[:idx], payload[idx+1:]
		}
		s.mu.Lock()
		err := s.applyQueryLocked(id, sqlText, nil)
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("lsn %d (QUERY %s): %w", rec.LSN, id, err)
		}
	case wal.RecInsert, wal.RecInsertBatch:
		batch := rec.Type == wal.RecInsertBatch
		body, reqID := SplitReqID(payload)
		streamName, rows, err := parseInsertRows(body, batch)
		if err != nil {
			return fmt.Errorf("lsn %d (INSERT): %w", rec.LSN, err)
		}
		results, err := s.engine.IngestBatch(streamName, rows, nil)
		if err != nil {
			return fmt.Errorf("lsn %d (INSERT): %w", rec.LSN, err)
		}
		emitted := 0
		var pushErrs []string
		for _, qr := range results {
			if qr.Err != nil {
				// The live run hit (and reported) the same per-query error;
				// the partial effects are deterministic, so replay continues.
				s.logf("replay lsn %d: query %s: %v", rec.LSN, qr.ID, qr.Err)
				pushErrs = append(pushErrs, fmt.Sprintf("query %s: %v", qr.ID, qr.Err))
			}
			emitted += len(qr.Results)
		}
		if reqID != "" {
			// Rebuild the idempotency window: the deterministic engine makes
			// the recomputed reply bit-identical to the live one, so a retry
			// that arrives after a crash gets the same answer without
			// double-applying.
			var pushErr error
			if len(pushErrs) > 0 {
				sort.Strings(pushErrs)
				pushErr = fmt.Errorf("%s", strings.Join(pushErrs, "; "))
			}
			s.dedup.put(reqID, dedupEntry{
				reply: ingestReply(batch, len(rows), emitted, pushErr),
				lsn:   rec.LSN,
			})
		}
	case wal.RecShed:
		level, err := strconv.Atoi(payload)
		if err != nil {
			return fmt.Errorf("lsn %d (SHED): %w", rec.LSN, err)
		}
		// Restore the accuracy budget at the same point in the insert
		// sequence the live run changed it — RNG consumption downstream
		// depends on it.
		s.engine.SetDegradeLevel(level)
	case wal.RecEpoch:
		return s.applyEpochRecord(rec)
	case wal.RecClose:
		s.mu.Lock()
		err := s.applyCloseLocked(payload)
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("lsn %d (CLOSE): %w", rec.LSN, err)
		}
	default:
		return fmt.Errorf("lsn %d: unknown record type %d", rec.LSN, rec.Type)
	}
	return nil
}

func indexByteSpace(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return i
		}
	}
	return -1
}

// journal appends one record to the WAL without waiting for it to become
// durable; callers pair it with waitDurable(lsn) after releasing whatever
// locks they hold, so concurrent committers share fsyncs (group commit).
// No-op (lsn 0) without durability. Safe under any lock, including the
// engine's sequencing critical section — it touches no server mutex.
func (s *Server) journal(typ wal.RecordType, payload string) (uint64, error) {
	w := s.wal.Load()
	if w == nil {
		return 0, nil
	}
	lsn, err := w.AppendAsync(typ, []byte(payload))
	if err != nil {
		s.logf("wal append: %v", err)
		return 0, fmt.Errorf("wal append failed: %w", err)
	}
	s.sinceCk.Add(1)
	return lsn, nil
}

// waitDurable blocks until lsn is on stable storage (per the fsync
// policy). lsn 0 means "nothing journaled".
func (s *Server) waitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	w := s.wal.Load()
	if w == nil {
		return nil
	}
	if err := w.WaitDurable(lsn); err != nil {
		return fmt.Errorf("wal sync failed: %w", err)
	}
	return nil
}

// checkpointDue reports whether the record cadence calls for a checkpoint.
func (s *Server) checkpointDue() bool {
	return s.ckEvery > 0 && s.sinceCk.Load() >= int64(s.ckEvery)
}

// maybeCheckpoint writes a checkpoint when the record cadence is due. It
// quiesces the engine (Exclusive) so the snapshot is a consistent cut: any
// journaled record's pushes complete under the shard locks before
// Exclusive acquires them, so capturing at LastLSN is always safe.
func (s *Server) maybeCheckpoint() {
	if !s.checkpointDue() {
		return
	}
	release := s.engine.Exclusive()
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.wal.Load()
	if w == nil || s.ck == nil || !s.checkpointDue() {
		return
	}
	lsn := w.LastLSN()
	if err := s.checkpointLocked(w, lsn); err != nil {
		// A failed checkpoint is not fatal: the WAL still holds the full
		// suffix after the previous checkpoint.
		s.logf("checkpoint at lsn %d: %v", lsn, err)
		return
	}
	s.sinceCk.Store(0)
}

// checkpointLocked captures engine + query state as of lsn, persists it,
// and drops WAL segments the snapshot covers. Caller holds s.mu and has
// the engine quiesced (Exclusive, or single-threaded shutdown).
func (s *Server) checkpointLocked(w *wal.Log, lsn uint64) error {
	defs := make([]checkpoint.QueryDef, 0, len(s.queries))
	for _, rq := range s.queries {
		defs = append(defs, checkpoint.QueryDef{ID: rq.id, SQL: rq.sqlText, Query: rq.query})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
	snap, err := checkpoint.Capture(s.engine, lsn, defs)
	if err != nil {
		return err
	}
	// Post-failover, the snapshot must carry the epoch state: truncation
	// below may drop the RecEpoch records a recovered primary needs to
	// fence stale rejoiners. Pre-failover (epoch 1) the fields stay absent,
	// keeping checkpoint bytes identical to earlier releases.
	if e, hist := s.epochSnapshot(); e > 1 {
		snap.Epoch, snap.EpochHist = e, hist
	}
	if err := s.ck.Save(snap); err != nil {
		return err
	}
	if err := w.TruncateThrough(lsn); err != nil {
		s.logf("wal truncate through %d: %v", lsn, err)
	}
	s.logf("checkpoint: lsn=%d queries=%d", lsn, len(defs))
	return nil
}

// finalizeDurable writes a shutdown checkpoint and closes the WAL. Safe to
// call more than once.
func (s *Server) finalizeDurable() error {
	w := s.wal.Swap(nil)
	if w == nil {
		return nil
	}
	release := s.engine.Exclusive()
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if lsn := w.LastLSN(); lsn > 0 {
		err = s.checkpointLocked(w, lsn)
	}
	if serr := w.Sync(); err == nil {
		err = serr
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}
