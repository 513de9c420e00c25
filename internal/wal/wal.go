// Package wal implements the write-ahead log of the durability subsystem:
// an append-only, CRC32-framed, segment-rotated journal of engine commands
// (tuple inserts, stream DDL, query registrations and closes).
//
// # On-disk format
//
// A log is a directory of segment files named by the LSN of their first
// record:
//
//	0000000000000001.wal
//	00000000000003e9.wal
//	...
//
// Each segment is a sequence of frames:
//
//	+----------+----------+===========================+
//	| len u32  | crc u32  | payload (len bytes)       |
//	+----------+----------+===========================+
//	payload = | lsn u64 | type u8 | data ... |
//
// All integers are little-endian; crc is CRC-32C (Castagnoli) over the
// payload. LSNs start at 1 and increase by exactly 1 per record across
// segment boundaries, so replay can detect missing segments.
//
// # Failure semantics
//
// Open truncates a torn tail: scanning the last segment, the first frame
// that is short, oversized, CRC-corrupt, or LSN-discontinuous ends the
// valid region, and the file is truncated there (a crash mid-append leaves
// at most one partial frame). Corruption anywhere else — an earlier
// segment, or a gap in the LSN sequence — is reported as ErrCorrupt by
// Replay, never a panic: the operator must intervene rather than silently
// losing interior history.
//
// # Fsync policy
//
// FsyncAlways syncs after every append (group-commit durability),
// FsyncInterval syncs from a background goroutine every SyncInterval
// (bounded data loss, default 100ms), FsyncNone leaves syncing to the OS.
// Every append is flushed to the OS immediately regardless of policy; the
// policy only governs fsync.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// WAL observability: append volume, fsync pressure, segment churn, and
// recovery work. All instruments are observation-only and shared across
// every Log in the process.
var (
	mAppends = metrics.Default.Counter("asdb_wal_append_total",
		"records appended to the write-ahead log")
	mAppendBytes = metrics.Default.Counter("asdb_wal_append_bytes_total",
		"framed bytes appended to the write-ahead log")
	hAppend = metrics.Default.Histogram("asdb_wal_append_seconds",
		"wall time of one WAL append (including fsync under the always policy)",
		metrics.DefBuckets)
	mFsyncs = metrics.Default.Counter("asdb_wal_fsync_total",
		"fsync calls issued on WAL segments")
	hFsync = metrics.Default.Histogram("asdb_wal_fsync_seconds",
		"wall time of one WAL segment fsync", metrics.DefBuckets)
	mRotations = metrics.Default.Counter("asdb_wal_rotations_total",
		"WAL segment rotations")
	mReplayed = metrics.Default.Counter("asdb_wal_replay_records_total",
		"records delivered by WAL replay")
	mTornBytes = metrics.Default.Counter("asdb_wal_torn_bytes_total",
		"torn-tail bytes truncated when opening the WAL")
	mSegsDropped = metrics.Default.Counter("asdb_wal_segments_dropped_total",
		"segments removed by post-checkpoint truncation")
	hBatchRecords = metrics.Default.Histogram("asdb_wal_batch_records",
		"records per AppendBatch call", batchRecordBuckets)
	mSyncWaits = metrics.Default.Counter("asdb_wal_sync_wait_total",
		"WaitDurable calls that had to wait for durability")
	mSyncCoalesced = metrics.Default.Counter("asdb_wal_sync_coalesced_total",
		"WaitDurable calls satisfied by an fsync another caller already issued")
	mWedges = metrics.Default.Counter("asdb_wal_wedged_total",
		"WAL logs wedged by an append-path write or fsync failure")
)

var batchRecordBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

const (
	headerSize = 8 // u32 length + u32 crc
	metaSize   = 9 // u64 lsn + u8 type inside the payload

	// MaxRecordBytes bounds a single record; larger length fields are
	// treated as corruption (they would otherwise force huge allocations).
	MaxRecordBytes = 16 << 20

	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 4 << 20

	// DefaultSyncInterval is the FsyncInterval cadence.
	DefaultSyncInterval = 100 * time.Millisecond

	segSuffix = ".wal"
)

// ErrCorrupt reports an invalid frame (bad CRC, short frame, absurd
// length, or LSN discontinuity) outside the truncatable tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrWedged reports an append to a log disabled by an earlier write or
// fsync failure. Once a flush or fsync fails, the segment tail may hold a
// torn frame (or the kernel may have dropped dirty pages), so continuing to
// append — and acknowledge — records would risk acknowledged-then-lost
// writes and mid-file corruption. The log therefore goes append-wedged:
// every later append or sync fails fast with this error (reads and Replay
// still work), and the process must restart to recover from the valid
// prefix.
var ErrWedged = errors.New("wal: log wedged by earlier write failure")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer.
	FsyncInterval
	// FsyncNone never syncs explicitly.
	FsyncNone
)

// ParseFsyncPolicy parses "always", "interval", or "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always | interval | none)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// RecordType tags what a record carries.
type RecordType uint8

const (
	// RecInsert is one ingested tuple (INSERT command payload).
	RecInsert RecordType = 1
	// RecStream is a stream DDL registration (STREAM command payload).
	RecStream RecordType = 2
	// RecQuery is a continuous-query registration ("id sql").
	RecQuery RecordType = 3
	// RecClose is a query deregistration ("id").
	RecClose RecordType = 4
	// RecInsertBatch is one multi-tuple ingest batch (INSERTBATCH command
	// payload). The whole batch lives in a single frame, so a crash
	// mid-append tears the entire batch, never a prefix of it.
	RecInsertBatch RecordType = 5
	// RecShed is an accuracy-degradation level transition (decimal level).
	// Shed transitions are journaled so WAL replay reproduces the exact
	// resample counts — and hence RNG evolution — of the live run.
	RecShed RecordType = 6
	// RecEpoch is a replication-epoch (term) bump, journaled by a promoted
	// follower at the instant it becomes primary (decimal epoch). Because
	// the epoch rides the ordinary WAL it survives crashes, ships to
	// followers through the ordinary replication stream, and marks the
	// exact LSN at which the new epoch's history begins — the boundary a
	// fenced old primary truncates back to when it rejoins.
	RecEpoch RecordType = 7
)

var recordNames = [...]string{RecInsert: "INSERT", RecStream: "STREAM", RecQuery: "QUERY",
	RecClose: "CLOSE", RecInsertBatch: "INSERTBATCH", RecShed: "SHED", RecEpoch: "EPOCH"}

// String names the command a record journals.
func (t RecordType) String() string {
	if int(t) < len(recordNames) && recordNames[t] != "" {
		return recordNames[t]
	}
	return "type " + strconv.Itoa(int(t))
}

// Record is one journaled command.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
}

// Options tunes a Log. The zero value is usable: FsyncAlways policy,
// default segment size and sync interval.
type Options struct {
	Policy       FsyncPolicy
	SyncInterval time.Duration
	SegmentBytes int64
	// FS overrides the filesystem (fault injection in the chaos suite);
	// nil uses the real one.
	FS fault.FS
}

func (o Options) normalize() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	return o
}

// Log is an append-only write-ahead log. Safe for concurrent use.
//
// Durability under FsyncAlways uses group commit: AppendAsync writes and
// flushes the frame without syncing, and WaitDurable blocks until the
// record is on stable storage — the first waiter in becomes the leader and
// issues one fsync covering every record flushed so far, so concurrent
// committers (and whole AppendBatch calls) share a single fsync instead of
// paying one each. Append is the composition of the two.
type Log struct {
	dir  string
	opts Options
	fs   fault.FS

	mu        sync.Mutex
	f         fault.File
	w         *bufio.Writer
	segFirst  uint64 // LSN of the current segment's first record
	size      int64  // bytes written to the current segment
	nextLSN   uint64
	dirty     bool // bytes flushed to the OS but not fsynced
	closed    bool
	wedged    error // first append-path write/sync failure; nil = healthy
	truncated int64 // torn-tail bytes dropped at Open

	// pins holds the lowest LSN each registered Pin still needs;
	// TruncateThrough never removes a segment holding a pinned record.
	pins   map[int]uint64
	pinSeq int

	// syncMu serializes group-commit leaders; synced is the highest LSN
	// known to be on stable storage (monotonic, readable without locks).
	syncMu sync.Mutex
	synced atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the log directory, truncates any torn
// tail of the last segment, and positions the log for appending.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.normalize()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: fs}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		l.nextLSN = 1
	} else {
		last := segs[len(segs)-1]
		validLen, lastLSN, _, err := scanSegment(fs, last.path, last.first)
		if err != nil {
			return nil, err
		}
		fi, err := fs.Stat(last.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if fi.Size() > validLen {
			l.truncated = fi.Size() - validLen
			mTornBytes.Add(uint64(l.truncated))
			if err := fs.Truncate(last.path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		f, err := fs.OpenFile(last.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(validLen, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.w = bufio.NewWriter(f)
		l.segFirst = last.first
		l.size = validLen
		l.nextLSN = lastLSN + 1
	}
	if opts.Policy == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Append journals one record durably (per the fsync policy) and returns
// its LSN. Equivalent to AppendAsync followed by WaitDurable; independent
// committers calling Append concurrently share fsyncs via group commit.
func (l *Log) Append(typ RecordType, payload []byte) (uint64, error) {
	lsn, err := l.AppendAsync(typ, payload)
	if err != nil {
		return 0, err
	}
	return lsn, l.WaitDurable(lsn)
}

// AppendAsync writes and flushes one record without waiting for it to
// reach stable storage, returning its LSN. Callers needing durability
// (FsyncAlways) must follow with WaitDurable — typically after releasing
// whatever critical section ordered the append, so fsyncs coalesce.
func (l *Log) AppendAsync(typ RecordType, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.wedged != nil {
		return 0, l.wedgedErrLocked()
	}
	defer hAppend.ObserveSince(time.Now())
	if err := l.writeFrameLocked(typ, payload); err != nil {
		return 0, err
	}
	if err := l.w.Flush(); err != nil {
		return 0, l.wedgeLocked(err)
	}
	l.dirty = true
	return l.nextLSN - 1, nil
}

// wedgeLocked records the first append-path failure and disables further
// appends: a failed flush or fsync may have left a torn frame on disk (or
// dropped dirty pages), and appending past it would corrupt the interior of
// the log. Caller holds l.mu.
func (l *Log) wedgeLocked(err error) error {
	if l.wedged == nil {
		l.wedged = err
		mWedges.Inc()
	}
	return fmt.Errorf("wal: %w", err)
}

// wedgedErrLocked reports the standing wedge, wrapping the original cause.
func (l *Log) wedgedErrLocked() error {
	return fmt.Errorf("%w: %v", ErrWedged, l.wedged)
}

// wedgeSurgeryLocked wedges the log after a failure mid-surgery:
// TruncateSuffix and Reset close the active segment before rebuilding the
// tail, so any error past that point leaves the log without a usable file
// handle. Without the wedge, a later append would buffer over the closed
// fd and be acknowledged, only to fail at flush time with a confusing
// error. Unlike wedgeLocked it does not re-wrap (callers already did).
func (l *Log) wedgeSurgeryLocked(err error) error {
	if l.wedged == nil {
		l.wedged = err
		mWedges.Inc()
	}
	return err
}

// Wedged returns the write/sync failure that wedged the log, or nil.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedged
}

// AppendBatch journals payloads as consecutive records of one type with a
// single buffered-writer flush and — under FsyncAlways — a single fsync
// for the whole batch. It returns the first and last LSNs assigned.
func (l *Log) AppendBatch(typ RecordType, payloads [][]byte) (first, last uint64, err error) {
	if len(payloads) == 0 {
		return 0, 0, errors.New("wal: empty batch")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, 0, ErrClosed
	}
	if l.wedged != nil {
		err := l.wedgedErrLocked()
		l.mu.Unlock()
		return 0, 0, err
	}
	t0 := time.Now()
	for _, p := range payloads {
		if err := l.writeFrameLocked(typ, p); err != nil {
			// Flush what was written so the LSN space stays consistent
			// with the file; the failed record consumed no LSN.
			l.w.Flush()
			l.mu.Unlock()
			return 0, 0, err
		}
	}
	if err := l.w.Flush(); err != nil {
		err = l.wedgeLocked(err)
		l.mu.Unlock()
		return 0, 0, err
	}
	l.dirty = true
	last = l.nextLSN - 1
	first = last - uint64(len(payloads)) + 1
	hAppend.ObserveSince(t0)
	hBatchRecords.Observe(float64(len(payloads)))
	l.mu.Unlock()
	return first, last, l.WaitDurable(last)
}

// writeFrameLocked frames and writes one record into the buffered writer,
// rotating segments as needed, and advances size/nextLSN. Caller holds
// l.mu and flushes afterwards.
func (l *Log) writeFrameLocked(typ RecordType, payload []byte) error {
	frameLen := int64(headerSize + metaSize + len(payload))
	if frameLen > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	if l.size > 0 && l.size+frameLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	lsn := l.nextLSN
	var hdr [headerSize + metaSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(metaSize+len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	hdr[16] = byte(typ)
	crc := crc32.Update(0, castagnoli, hdr[8:])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	// A bufio write only fails when it triggered a real flush, so bytes may
	// have reached the file mid-frame: wedge.
	if _, err := l.w.Write(hdr[:]); err != nil {
		return l.wedgeLocked(err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return l.wedgeLocked(err)
	}
	l.size += frameLen
	l.nextLSN++
	mAppends.Inc()
	mAppendBytes.Add(uint64(frameLen))
	return nil
}

// WaitDurable blocks until the record at lsn is on stable storage. Under
// FsyncInterval and FsyncNone it returns immediately (callers accepted the
// policy's durability window). Under FsyncAlways the first caller in
// becomes the group-commit leader: it issues one fsync covering everything
// flushed so far, and callers that arrive while it runs are satisfied by
// that same fsync.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.opts.Policy != FsyncAlways {
		return nil
	}
	if l.synced.Load() >= lsn {
		return nil
	}
	mSyncWaits.Inc()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= lsn {
		mSyncCoalesced.Inc()
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedgedErrLocked()
	}
	if err := l.w.Flush(); err != nil {
		return l.wedgeLocked(err)
	}
	if err := l.fsync(); err != nil {
		return l.wedgeLocked(err)
	}
	l.dirty = false
	return nil
}

// fsync syncs the current segment file, recording count and latency and
// advancing the durable watermark to cover every record written so far.
// Caller holds l.mu with the buffered writer flushed.
func (l *Log) fsync() error {
	t0 := time.Now()
	err := l.f.Sync()
	mFsyncs.Inc()
	hFsync.ObserveSince(t0)
	if err == nil {
		l.markSynced(l.nextLSN - 1)
	}
	return err
}

// markSynced raises the durable watermark monotonically.
func (l *Log) markSynced(lsn uint64) {
	for {
		cur := l.synced.Load()
		if cur >= lsn || l.synced.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// SyncedLSN returns the highest LSN known to be on stable storage (only
// maintained meaningfully under FsyncAlways; fsyncs from segment rotation
// and explicit Sync advance it under every policy).
func (l *Log) SyncedLSN() uint64 { return l.synced.Load() }

// rotateLocked finalizes the current segment and starts one at nextLSN.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return l.wedgeLocked(err)
	}
	if err := l.fsync(); err != nil {
		return l.wedgeLocked(err)
	}
	mRotations.Inc()
	if err := l.f.Close(); err != nil {
		return l.wedgeLocked(err)
	}
	return l.openSegment(l.nextLSN)
}

// openSegment creates the segment whose first record will be first.
func (l *Log) openSegment(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segFirst = first
	l.size = 0
	l.dirty = false
	return syncDir(l.fs, l.dir)
}

// Sync flushes buffered appends and fsyncs the current segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedgedErrLocked()
	}
	if err := l.w.Flush(); err != nil {
		return l.wedgeLocked(err)
	}
	if !l.dirty {
		return nil
	}
	if err := l.fsync(); err != nil {
		return l.wedgeLocked(err)
	}
	l.dirty = false
	return nil
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	return err
}

// LastLSN returns the LSN of the most recent record (0 when empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// TruncatedBytes reports how many torn-tail bytes Open discarded.
func (l *Log) TruncatedBytes() int64 { return l.truncated }

// Replay calls fn for every record with LSN ≥ from, in order, verifying
// frame integrity and LSN continuity. It returns ErrCorrupt (wrapped with
// detail) on any invalid interior frame or missing segment; an error from
// fn aborts the replay.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// A wedged log already flushed everything up to the failure; the frames
	// on disk are the valid prefix Replay should read.
	if l.wedged == nil {
		if err := l.w.Flush(); err != nil {
			return l.wedgeLocked(err)
		}
	}
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	expect := uint64(0) // next LSN expected; 0 = take from first segment
	for i, seg := range segs {
		if expect != 0 && seg.first != expect {
			return fmt.Errorf("%w: segment %s starts at lsn %d, want %d (missing segment?)",
				ErrCorrupt, filepath.Base(seg.path), seg.first, expect)
		}
		// Skip segments entirely below the replay point (their last
		// record is first(next)-1).
		if i+1 < len(segs) && segs[i+1].first <= from {
			expect = segs[i+1].first
			continue
		}
		last, err := replaySegment(l.fs, seg.path, seg.first, from, func(rec Record) error {
			mReplayed.Inc()
			return fn(rec)
		})
		if err != nil {
			return err
		}
		expect = last + 1
	}
	return nil
}

// Pin protects the log suffix starting at from against TruncateThrough:
// while any pin at p is held, segments holding records with LSN ≥ p stay
// on disk. The replication handshake pins the suffix it is about to ship
// so a concurrent checkpoint cannot open a gap between the snapshot it
// handed out and the WAL records that follow it; the shipping loop then
// advances the pin as records go out so retention stays bounded.
type Pin struct {
	l  *Log
	id int
}

// Pin registers a truncation pin at from and returns it. Release it when
// the protected suffix is no longer needed.
func (l *Log) Pin(from uint64) *Pin {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pins == nil {
		l.pins = make(map[int]uint64)
	}
	l.pinSeq++
	p := &Pin{l: l, id: l.pinSeq}
	l.pins[p.id] = from
	return p
}

// Advance raises the pin point monotonically (lower values are ignored).
func (p *Pin) Advance(from uint64) {
	p.l.mu.Lock()
	if cur, ok := p.l.pins[p.id]; ok && from > cur {
		p.l.pins[p.id] = from
	}
	p.l.mu.Unlock()
}

// Release drops the pin. Safe to call more than once.
func (p *Pin) Release() {
	p.l.mu.Lock()
	delete(p.l.pins, p.id)
	p.l.mu.Unlock()
}

// Pins reports how many truncation pins are currently registered. The
// replication tests use it to assert that abandoned ship handshakes do not
// leak pins (a leaked pin blocks checkpoint pruning forever).
func (l *Log) Pins() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pins)
}

// pinnedFloorLocked clamps a truncation target so every pinned record
// survives. Caller holds l.mu.
func (l *Log) pinnedFloorLocked(lsn uint64) uint64 {
	for _, from := range l.pins {
		if from == 0 {
			return 0
		}
		if from-1 < lsn {
			lsn = from - 1
		}
	}
	return lsn
}

// OldestLSN returns the LSN of the first record still on disk (the first
// segment's first record). With no truncation that is 1 even while the log
// is empty: the initial segment is named for the record it will receive.
func (l *Log) OldestLSN() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return l.segFirst, nil
	}
	return segs[0].first, nil
}

// Policy reports the fsync policy the log was opened with.
func (l *Log) Policy() FsyncPolicy { return l.opts.Policy }

// FS returns the filesystem the log operates on (the injected fault.FS or
// the passthrough one). The cluster rejoin path reuses it for data-dir
// surgery, so fault-injection schedules cover that path too.
func (l *Log) FS() fault.FS { return l.fs }

// TruncateThrough removes segments whose records all have LSN ≤ lsn. The
// current segment is never removed, and segments protected by a Pin are
// kept. Call after a checkpoint at lsn: the remaining suffix is exactly
// what recovery must replay.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	lsn = l.pinnedFloorLocked(lsn)
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if i+1 >= len(segs) || seg.first == l.segFirst {
			break // never the last/current segment
		}
		if segs[i+1].first-1 > lsn {
			break // segment holds records beyond lsn
		}
		if err := l.fs.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		mSegsDropped.Inc()
	}
	return syncDir(l.fs, l.dir)
}

// TruncateSuffix discards every record with LSN > after, so the next
// append receives LSN after+1. It is the fencing primitive of primary
// rejoin: a deposed primary that diverged past the epoch boundary cuts its
// WAL back to the last epoch-consistent LSN before re-attaching as a
// follower. Whole segments past the boundary are removed and the segment
// containing it is byte-truncated to the frame ending at after. The log
// must have no active pins or tailing readers (the caller shut replication
// down first); truncating with pins held is refused.
func (l *Log) TruncateSuffix(after uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedgedErrLocked()
	}
	if len(l.pins) > 0 {
		return fmt.Errorf("wal: truncate suffix with %d active pins", len(l.pins))
	}
	if after >= l.nextLSN-1 {
		return nil // nothing beyond after
	}
	if err := l.w.Flush(); err != nil {
		return l.wedgeLocked(err)
	}
	// From here the active segment handle is closed; every error return
	// below must wedge the log (wedgeSurgeryLocked) so subsequent appends
	// fail fast instead of writing into a buffer over a closed fd.
	if err := l.f.Close(); err != nil {
		return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
	}
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return l.wedgeSurgeryLocked(err)
	}
	var keep []segment
	for _, seg := range segs {
		if seg.first > after {
			if err := l.fs.Remove(seg.path); err != nil {
				return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
			}
			mSegsDropped.Inc()
			continue
		}
		keep = append(keep, seg)
	}
	if len(keep) == 0 {
		// The entire history was past the boundary (or the log held nothing
		// below it): restart with a fresh segment at after+1.
		l.nextLSN = after + 1
		if l.synced.Load() > after {
			l.synced.Store(after)
		}
		if err := l.openSegment(after + 1); err != nil {
			return l.wedgeSurgeryLocked(err)
		}
		return nil
	}
	last := keep[len(keep)-1]
	validLen, lastLSN, err := scanThrough(l.fs, last.path, last.first, after)
	if err != nil {
		return l.wedgeSurgeryLocked(err)
	}
	fi, err := l.fs.Stat(last.path)
	if err != nil {
		return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
	}
	if fi.Size() > validLen {
		if err := l.fs.Truncate(last.path, validLen); err != nil {
			return l.wedgeSurgeryLocked(fmt.Errorf("wal: truncating suffix: %w", err))
		}
	}
	f, err := l.fs.OpenFile(last.path, os.O_WRONLY, 0)
	if err != nil {
		return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segFirst = last.first
	l.size = validLen
	l.nextLSN = lastLSN + 1
	l.dirty = false
	if l.synced.Load() > lastLSN {
		l.synced.Store(lastLSN)
	}
	// A syncDir failure also wedges: the removals above may not be durable,
	// and a crash could resurrect a diverged segment in front of recovery.
	if err := syncDir(l.fs, l.dir); err != nil {
		return l.wedgeSurgeryLocked(err)
	}
	return nil
}

// Reset discards the entire log and positions it so the next append
// receives LSN next. A durable follower bootstrapped from a primary
// snapshot at LSN s calls Reset(s+1): the records below s+1 live in the
// snapshot, not in this log, and the replicated suffix it is about to
// journal must line up with the primary's LSN space. Records below next
// are marked durable (they are — in the snapshot). Refused while pins are
// held.
func (l *Log) Reset(next uint64) error {
	if next == 0 {
		return errors.New("wal: reset to lsn 0")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedgedErrLocked()
	}
	if len(l.pins) > 0 {
		return fmt.Errorf("wal: reset with %d active pins", len(l.pins))
	}
	if err := l.w.Flush(); err != nil {
		return l.wedgeLocked(err)
	}
	// As in TruncateSuffix: past this close, every error must wedge.
	if err := l.f.Close(); err != nil {
		return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
	}
	segs, err := listSegments(l.fs, l.dir)
	if err != nil {
		return l.wedgeSurgeryLocked(err)
	}
	for _, seg := range segs {
		if err := l.fs.Remove(seg.path); err != nil {
			return l.wedgeSurgeryLocked(fmt.Errorf("wal: %w", err))
		}
		mSegsDropped.Inc()
	}
	l.nextLSN = next
	l.synced.Store(next - 1)
	if err := l.openSegment(next); err != nil {
		return l.wedgeSurgeryLocked(err)
	}
	return nil
}

type segment struct {
	first uint64
	path  string
}

func segName(first uint64) string {
	return fmt.Sprintf("%016x%s", first, segSuffix)
}

func listSegments(fs fault.FS, dir string) ([]segment, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil || first == 0 {
			continue // foreign file; ignore
		}
		segs = append(segs, segment{first: first, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// scanSegment validates frames sequentially and returns the length of the
// valid prefix and the last valid LSN (first-1 when the segment holds no
// valid record). Invalid tails are expected (torn appends) and simply end
// the scan; only I/O errors are returned.
func scanSegment(fs fault.FS, path string, first uint64) (validLen int64, lastLSN uint64, nrec int, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	lastLSN = first - 1
	for {
		_, frameLen, ferr := readFrame(r, lastLSN+1)
		if ferr != nil {
			return validLen, lastLSN, nrec, nil // torn/corrupt tail ends the valid prefix
		}
		validLen += frameLen
		lastLSN++
		nrec++
	}
}

// scanThrough walks a segment's frames up to and including LSN through,
// returning the byte length of that prefix and its last LSN. A torn or
// corrupt frame before through ends the walk early (like scanSegment): the
// prefix that validated is all the history the segment can vouch for.
func scanThrough(fs fault.FS, path string, first, through uint64) (validLen int64, lastLSN uint64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	lastLSN = first - 1
	for lastLSN < through {
		_, frameLen, ferr := readFrame(r, lastLSN+1)
		if ferr != nil {
			break
		}
		validLen += frameLen
		lastLSN++
	}
	return validLen, lastLSN, nil
}

// replaySegment reads a fully-valid segment, calling fn for records with
// LSN ≥ from; any invalid frame is ErrCorrupt (Open already truncated the
// legitimate torn tail).
func replaySegment(fs fault.FS, path string, first, from uint64, fn func(Record) error) (lastLSN uint64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	lastLSN = first - 1
	for {
		rec, _, ferr := readFrame(r, lastLSN+1)
		if ferr == io.EOF {
			return lastLSN, nil
		}
		if ferr != nil {
			return lastLSN, fmt.Errorf("%w: %s at lsn %d: %v",
				ErrCorrupt, filepath.Base(path), lastLSN+1, ferr)
		}
		lastLSN++
		if rec.LSN >= from {
			if err := fn(rec); err != nil {
				return lastLSN, err
			}
		}
	}
}

// readFrame decodes one frame, verifying length sanity, CRC, and that the
// record carries wantLSN. io.EOF means a clean end; any other error means
// the frame is invalid.
func readFrame(r *bufio.Reader, wantLSN uint64) (Record, int64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("short header: %v", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if length < metaSize || int64(length) > MaxRecordBytes-headerSize {
		return Record{}, 0, fmt.Errorf("bad length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, 0, fmt.Errorf("short frame: %v", err)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return Record{}, 0, errors.New("bad crc")
	}
	lsn := binary.LittleEndian.Uint64(payload[0:8])
	if lsn != wantLSN {
		return Record{}, 0, fmt.Errorf("lsn %d, want %d", lsn, wantLSN)
	}
	return Record{
		LSN:     lsn,
		Type:    RecordType(payload[8]),
		Payload: payload[metaSize:],
	}, int64(headerSize) + int64(length), nil
}

// syncDir fsyncs a directory so renames/creates/removes are durable.
func syncDir(fs fault.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
