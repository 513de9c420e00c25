package server

// Durability wiring: NewDurable opens the engine's DataDir, loads the
// latest valid checkpoint, deterministically replays the write-ahead-log
// suffix through apply, the one function live commands and follower apply
// also run, and then turns on journaling. Because the engine RNGs are
// seeded from the engine configuration and every consumer of randomness is
// restored (checkpointed RNG states) or re-executed (WAL replay), a
// recovered server is bit-identical to one that never crashed: the same
// inserts produce the same results.
//
// Replay runs with Engine.SetRecovering(true), which reroutes the
// steady-state ingest/push metrics to a dedicated recovery counter, so a
// recovered process reports the same metric values as one that never
// crashed (asserted by TestRecoveryMetricsParity).

import (
	"errors"
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

// ErrHistoryGap refuses a data directory whose oldest WAL segment starts
// past the LSN after its newest readable checkpoint (LSN 1 without one):
// the records between them are gone, and recovery would start short.
var ErrHistoryGap = errors.New("server: checkpoint and wal do not meet")

// NewDurable returns a server honoring the engine's durability
// configuration. With Config.DataDir empty it behaves exactly like New;
// otherwise it recovers state from <DataDir>/checkpoints and <DataDir>/wal
// and journals every subsequent state-changing command. Recovered queries
// are detached (no owning connection); clients re-acquire result delivery
// with ATTACH <id>. A data directory whose history has a gap is refused
// with ErrHistoryGap.
func NewDurable(engine *core.Engine, logger *log.Logger) (*Server, error) {
	return NewDurableFS(engine, logger, nil)
}

// NewDurableFS is NewDurable over an injectable filesystem (nil = the real
// one). The fault-injection harness uses it to drive the whole durability
// stack — WAL appends, fsyncs, checkpoint renames — through seeded fault
// schedules without touching the OS.
func NewDurableFS(engine *core.Engine, logger *log.Logger, fs fault.FS) (_ *Server, err error) {
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
	wlog, err := wal.Open(filepath.Join(cfg.DataDir, "wal"), wal.Options{Policy: policy, FS: fs, SegmentBytes: cfg.WALSegmentBytes})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			wlog.Close()
		}
	}()
	if n := wlog.TruncatedBytes(); n > 0 {
		s.logf("recovery: truncated %d torn-tail bytes from the WAL", n)
	}
	from := uint64(1)
	if snap != nil {
		from = snap.LSN + 1
	}
	oldest, err := wlog.OldestLSN()
	if err != nil {
		return nil, err
	}
	if oldest > from {
		return nil, fmt.Errorf("%w: wal starts at lsn %d, checkpoint covers lsn ..%d", ErrHistoryGap, oldest, from-1)
	}
	engine.SetRecovering(true)
	defer engine.SetRecovering(false)
	// The checkpoint goes in as a shipped one does. Nothing else can reach
	// s yet, so no lock is held, and s.wal is still nil, so the local WAL
	// is not re-based.
	if snap != nil {
		if err := s.installSnapshotLocked(snap); err != nil {
			return nil, err
		}
	}
	replayed := 0
	if err := wlog.Replay(from, func(rec wal.Record) error {
		replayed++
		_, _, err := s.apply(&s.replScratch, nil, rec.Type, string(rec.Payload), rec.LSN)
		dropDeliveries(nil, &s.replScratch) // no connection is open yet
		if err != nil {
			return fmt.Errorf("lsn %d (%s): %w", rec.LSN, rec.Type, err)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("server: wal replay: %w", err)
	}
	s.logf("recovery: replayed %d wal records (lsn %d..%d)", replayed, from, wlog.LastLSN())
	// A checkpoint saved before the WAL was fsynced that far can outlive
	// the WAL's tail (power loss under -fsync interval): the next append
	// must follow the checkpoint, or its LSN is one the checkpoint already
	// covers and the next replay skips it.
	if last := wlog.LastLSN(); snap != nil && last < snap.LSN {
		if err := wlog.Reset(snap.LSN + 1); err != nil {
			return nil, fmt.Errorf("server: re-base wal after checkpoint: %w", err)
		}
		s.logf("recovery: wal ends at lsn %d, before checkpoint lsn %d; wal re-based at lsn %d", last, snap.LSN, snap.LSN+1)
	}
	s.wal.Store(wlog)
	s.ck = ckm
	s.ckEvery = cfg.CheckpointEvery
	return s, nil
}

// apply executes one journaled record, typ and payload exactly as the WAL
// holds them, and is the only code that does: live commands, crash replay
// and follower apply all call it, so live equals replay by construction.
// lsn is the LSN the record already has: 0 for a live command, the
// record's own on replay and on a follower.
//
// A live record is journaled where it becomes final: inside the engine's
// commit hook for ingest (WAL order then equals engine sequence order, and
// the hook makes the engine admit every tuple), after a successful apply
// for a control record, and before adoption for an epoch. A record that
// has an LSN is written through first (journalAt), before the engine is
// touched, and an ingest is taken as journaled.
//
// The reply is the command's protocol reply line: "" for an epoch, and for
// a SHED at the current level, which changes and journals nothing. An
// ingest renders every result, whoever listens, so its reply (ingestReply)
// and its dedup entry depend only on the record and the engine state; its
// DATA lines are planned into sc for the caller to send or drop. Errors are
// bare: replay and follower apply prefix the LSN.
func (s *Server) apply(sc *deliveryScratch, from *conn, typ wal.RecordType, payload string, lsn uint64) (string, uint64, error) {
	if lsn != 0 {
		if err := s.journalAt(typ, payload, lsn); err != nil {
			return "", 0, err
		}
	}
	switch typ {
	case wal.RecInsert, wal.RecInsertBatch:
		return s.applyIngest(sc, from, typ, payload, lsn)
	case wal.RecEpoch:
		epoch, err := strconv.ParseUint(payload, 10, 64)
		if err == nil && lsn == 0 {
			lsn, err = s.journal(typ, payload)
		}
		// Adopted only once durable: an epoch that a crash could lose must
		// never fence a peer.
		if err == nil {
			err = s.waitDurable(lsn)
		}
		if err != nil {
			return "", 0, err
		}
		s.adoptEpoch(epoch, lsn)
		return "", lsn, nil
	}
	release := s.engine.Exclusive()
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(from, typ, payload, lsn)
}

// applyLocked applies a control record (STREAM, QUERY, CLOSE, SHED) and,
// when it has no LSN yet, journals it once it succeeded. A live QUERY is
// owned by from. Caller holds Exclusive and s.mu.
func (s *Server) applyLocked(from *conn, typ wal.RecordType, payload string, lsn uint64) (reply string, _ uint64, err error) {
	switch typ {
	case wal.RecStream:
		var name string
		if name, err = s.applyStream(payload); err == nil {
			reply = "OK stream " + name
		}
	case wal.RecQuery:
		id, sqlText, _ := strings.Cut(payload, " ")
		if err = s.applyQueryLocked(id, sqlText, from); err == nil {
			reply = "OK query " + id
		}
	case wal.RecClose:
		if err = s.applyCloseLocked(payload); err == nil {
			reply = "OK closed " + payload
		}
	case wal.RecShed:
		// The level changes at the same point in the insert sequence on
		// every path: RNG consumption downstream depends on it.
		var level int
		if level, err = strconv.Atoi(payload); err == nil && level != s.engine.DegradeLevel() {
			s.engine.SetDegradeLevel(level)
			reply = "OK shed level=" + payload
		}
	default:
		err = fmt.Errorf("unknown record type %d", typ)
	}
	if err == nil && reply != "" && lsn == 0 {
		lsn, err = s.journal(typ, payload)
	}
	return reply, lsn, err
}

// applyIngest applies an INSERT or INSERTBATCH payload, "@<id>" token
// included, and remembers its reply under that id. The entry is registered
// before the caller's durability wait: if the wait fails the record is
// still in the log and applied, and a retry must hit the entry and re-wait
// rather than apply twice. From its journaling until then a live entry is
// counted in s.registering, which a checkpoint waits out.
func (s *Server) applyIngest(sc *deliveryScratch, from *conn, typ wal.RecordType, payload string, lsn uint64) (string, uint64, error) {
	batch := typ == wal.RecInsertBatch
	body, reqID := SplitReqID(payload)
	streamName, err := sc.batch.parse(body, batch)
	defer sc.batch.release()
	if err != nil {
		return "", 0, err
	}
	rows := sc.batch.rows
	var commit func() error
	var registering bool
	if lsn == 0 {
		commit = func() (err error) {
			lsn, err = s.journal(typ, payload)
			if registering = err == nil && lsn != 0 && reqID != ""; registering {
				s.registering.Add(1)
			}
			return err
		}
	}
	defer func() {
		if registering {
			s.registering.Done()
		}
	}()
	results, err := s.engine.IngestBatch(streamName, rows, commit)
	if err != nil {
		// Engine untouched, nothing journaled: a retry must re-execute.
		return "", 0, err
	}
	emitted, pushErr := s.planDeliveries(sc, from, results)
	reply := ingestReply(batch, len(rows), emitted, pushErr)
	if reqID != "" {
		s.dedup.put(reqID, dedupEntry{reply: reply, lsn: lsn})
	}
	return reply, lsn, nil
}

// journalAt writes through a record that already has its LSN: a no-op
// during replay (s.wal is stored only once replay ends) and on an
// in-memory follower. A durable follower journals every shipped record at
// the primary's LSN, so it recovers as a follower without re-shipping
// history and, once promoted, ships from the shared LSN space; a local log
// that assigns another LSN has diverged.
func (s *Server) journalAt(typ wal.RecordType, payload string, want uint64) error {
	if s.wal.Load() == nil {
		return nil
	}
	lsn, err := s.journal(typ, payload)
	if err == nil && lsn != want {
		err = fmt.Errorf("local wal assigned lsn %d (diverged)", lsn)
	}
	return err
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
	// A record journaled before Exclusive may still be on its way into the
	// dedup window; the snapshot must not cover it without its entry.
	s.registering.Wait()
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
	// Replay cannot rebuild the @reqid entries of the records truncated
	// below, so the snapshot carries them; absent when none was seen.
	snap.Dedup = s.dedup.snapshot()
	if err := s.ck.Save(snap); err != nil {
		return err
	}
	// Keep the WAL from the oldest checkpoint kept on: recovery falls back
	// to it when the newer one is unreadable, and must find every record
	// after it (a gap is ErrHistoryGap).
	horizon, err := s.ck.OldestLSN()
	if err == nil {
		err = w.TruncateThrough(horizon)
	}
	if err != nil {
		s.logf("wal truncate through %d: %v", horizon, err)
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
