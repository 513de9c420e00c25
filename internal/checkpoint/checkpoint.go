// Package checkpoint implements the snapshot half of the durability
// subsystem: periodic captures of complete engine state — registered
// schemas, continuous queries (SQL text plus runtime state: window
// contents, per-group and join windows, RNG states, counters), and the
// engine sequence counter — serialized losslessly via internal/codec.
//
// A checkpoint file carries the LSN of the last write-ahead-log record it
// reflects; recovery loads the latest valid checkpoint and replays the WAL
// suffix, yielding an engine bit-identical to one that never crashed: the
// restored RNG states resume every Monte Carlo and bootstrap stream
// mid-sequence, and the restored sequence counter preserves tuple numbering
// and future evaluator seeds.
//
// # On-disk format
//
//	+---------------+----------+----------+====================+
//	| magic (8B)    | len u32  | crc u32  | JSON payload       |
//	+---------------+----------+----------+====================+
//
// magic is "ASDBCKP1"; crc is CRC-32C over the payload. Files are written
// to a temporary name, fsynced, and renamed, so a crash mid-snapshot
// leaves either the previous checkpoint set intact or a stray temp file —
// never a half-written checkpoint under a valid name. LoadLatest skips
// unreadable or corrupt files and falls back to the newest valid one.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Checkpoint observability: snapshot cadence, size, and write latency, plus
// recovery-side load outcomes (valid loads vs files skipped as corrupt or
// unreadable). Observation-only — never changes what gets saved or loaded.
var (
	mSaves = metrics.Default.Counter("asdb_checkpoint_saves_total",
		"checkpoints written successfully")
	mSaveBytes = metrics.Default.Counter("asdb_checkpoint_save_bytes_total",
		"bytes of encoded checkpoint payloads written")
	hSave = metrics.Default.Histogram("asdb_checkpoint_save_seconds",
		"wall time of one atomic checkpoint save", metrics.DefBuckets)
	mLoads = metrics.Default.Counter("asdb_checkpoint_loads_total",
		"checkpoints loaded successfully during recovery")
	mLoadSkips = metrics.Default.Counter("asdb_checkpoint_load_skips_total",
		"checkpoint files skipped as unreadable or corrupt during recovery")
)

const (
	// version is the format Capture writes. legacyVersion files may also
	// hold windows as rows, which an engine that writes only columns reads
	// through decodeRows; an engine that knows only legacyVersion refuses
	// version rather than restore its columnar join sides as empty.
	version       = 2
	legacyVersion = 1

	magic     = "ASDBCKP1"
	headerLen = len(magic) + 8 // magic + u32 len + u32 crc
	filePref  = "ckpt-"
	fileSuf   = ".ck"
	keepFiles = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an unreadable checkpoint file.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// ColumnState mirrors stream.Column.
type ColumnState struct {
	Name          string `json:"name"`
	Probabilistic bool   `json:"probabilistic,omitempty"`
}

// StreamState is one registered stream schema.
type StreamState struct {
	Name    string        `json:"name"`
	Columns []ColumnState `json:"columns"`
}

// QueryState is one registered continuous query: its identity and SQL,
// and the runtime state core.QueryState serializes. Every window, join
// sides included, is written in the columnar form stream.ColumnWindowState.
type QueryState struct {
	ID  string `json:"id"`
	SQL string `json:"sql"`
	core.QueryState
}

// Snapshot is a complete engine checkpoint.
type Snapshot struct {
	// Version guards the format: Capture writes version, and Restore also
	// reads legacyVersion, whose row-form windows Decode converts.
	Version int `json:"version"`
	// LSN is the last WAL record reflected in this snapshot; recovery
	// replays from LSN+1.
	LSN uint64 `json:"lsn"`
	// Seq is the engine sequence counter at capture time.
	Seq uint64 `json:"seq"`
	// Degrade is the accuracy-degradation (load-shedding) level at capture
	// time. Shed transitions change resample counts — and hence RNG
	// consumption — so recovery must resume at the captured level for replay
	// to stay bit-identical.
	Degrade int           `json:"degrade,omitempty"`
	Streams []StreamState `json:"streams,omitempty"`
	Queries []QueryState  `json:"queries,omitempty"`
	// Epoch is the replication epoch (term) at capture time and EpochHist
	// the known epoch transitions (epoch 1 starts at LSN 0 implicitly, so
	// only bumps are recorded). Post-checkpoint WAL truncation can drop
	// RecEpoch records, so the boundaries a primary needs to fence stale
	// rejoiners must also ride the snapshot. Absent in pre-failover
	// checkpoints; readers treat that as epoch 1.
	Epoch     uint64       `json:"epoch,omitempty"`
	EpochHist []EpochBound `json:"epoch_hist,omitempty"`
	// Dedup is the server's idempotent-request window: WAL truncation
	// drops the records replay would rebuild it from. Absent when no
	// request carried an id.
	Dedup *DedupWindow `json:"dedup,omitempty"`
}

// EpochBound records one replication-epoch transition: Epoch's history
// begins at WAL record Start (the LSN of its RecEpoch record).
type EpochBound struct {
	Epoch uint64 `json:"epoch"`
	Start uint64 `json:"start"`
}

// DedupWindow is an idempotent-request window, oldest first: request
// IDs[i] was answered Replies[Reply[i]]. A window holds few distinct
// replies, so each is stored once. The snapshot covers every request's
// record, so a restored entry has nothing to wait for and keeps no LSN.
type DedupWindow struct {
	IDs     []string `json:"ids"`
	Replies []string `json:"replies"`
	Reply   []int    `json:"reply"`
}

// QueryDef names one live query for Capture.
type QueryDef struct {
	ID    string
	SQL   string
	Query *core.Query
}

// Capture snapshots the engine and the given queries. The caller must
// ensure no pushes run concurrently (the server holds its command mutex).
// Pass defs in a deterministic order (e.g. sorted by ID) so checkpoint
// bytes are reproducible.
func Capture(eng *core.Engine, lsn uint64, defs []QueryDef) (*Snapshot, error) {
	snap := &Snapshot{Version: version, LSN: lsn, Seq: eng.Seq(), Degrade: eng.DegradeLevel()}
	names := eng.Streams()
	sort.Strings(names)
	for _, name := range names {
		schema, err := eng.Schema(name)
		if err != nil {
			return nil, err
		}
		ss := StreamState{Name: schema.Name, Columns: make([]ColumnState, 0, schema.Arity())}
		for _, c := range schema.Columns {
			ss.Columns = append(ss.Columns, ColumnState{Name: c.Name, Probabilistic: c.Probabilistic})
		}
		snap.Streams = append(snap.Streams, ss)
	}
	for _, def := range defs {
		snap.Queries = append(snap.Queries, QueryState{ID: def.ID, SQL: def.SQL, QueryState: *def.Query.State()})
	}
	return snap, nil
}

// RestoredQuery is one query rebuilt by Restore.
type RestoredQuery struct {
	ID    string
	SQL   string
	Query *core.Query
}

// Restore rebuilds snapshot state into a fresh engine: registers every
// schema, recompiles every query and loads its runtime state, and finally
// restores the engine sequence counter. The engine must be newly created
// with the same configuration (Seed in particular) as the captured one.
func Restore(eng *core.Engine, snap *Snapshot) ([]RestoredQuery, error) {
	if snap == nil {
		return nil, errors.New("checkpoint: nil snapshot")
	}
	if snap.Version != version && snap.Version != legacyVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", snap.Version)
	}
	for _, ss := range snap.Streams {
		cols := make([]stream.Column, len(ss.Columns))
		for i, c := range ss.Columns {
			cols[i] = stream.Column{Name: c.Name, Probabilistic: c.Probabilistic}
		}
		schema, err := stream.NewSchema(ss.Name, cols...)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: stream %s: %w", ss.Name, err)
		}
		if err := eng.RegisterStream(schema); err != nil {
			return nil, fmt.Errorf("checkpoint: stream %s: %w", ss.Name, err)
		}
	}
	out := make([]RestoredQuery, 0, len(snap.Queries))
	for _, qs := range snap.Queries {
		q, err := eng.Compile(qs.SQL)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: recompiling query %s: %w", qs.ID, err)
		}
		if err := q.SetState(&qs.QueryState); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", qs.ID, err)
		}
		out = append(out, RestoredQuery{ID: qs.ID, SQL: qs.SQL, Query: q})
	}
	eng.RestoreSeq(snap.Seq)
	eng.SetDegradeLevel(snap.Degrade)
	return out, nil
}

// Encode renders the snapshot in the framed on-disk format.
func (s *Snapshot) Encode() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(magic)+4:], crc32.Checksum(payload, castagnoli))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// Decode parses and validates a framed snapshot.
func Decode(data []byte) (*Snapshot, error) {
	payload, err := verify(data)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if snap.Version == legacyVersion {
		if err := decodeRows(payload, &snap); err != nil {
			return nil, err
		}
	}
	return &snap, nil
}

// verify checks a framed snapshot's magic, length and CRC and returns its
// JSON payload.
func verify(data []byte) ([]byte, error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(data[len(magic):])
	crc := binary.LittleEndian.Uint32(data[len(magic)+4:])
	payload := data[headerLen:]
	if uint32(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), length)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("%w: bad crc", ErrCorrupt)
	}
	return payload, nil
}

// Manager stores checkpoints in a directory, keeping the newest few.
type Manager struct {
	dir string
	fs  fault.FS
}

// NewManagerFS opens (creating if needed) a checkpoint directory over an
// injectable filesystem (fault injection in the chaos suite); nil fs uses
// the real one.
func NewManagerFS(dir string, fs fault.FS) (*Manager, error) {
	if fs == nil {
		fs = fault.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Manager{dir: dir, fs: fs}, nil
}

// Save writes the snapshot atomically (temp file + fsync + rename + dir
// fsync) and prunes all but the newest checkpoints.
func (m *Manager) Save(s *Snapshot) error {
	t0 := time.Now()
	data, err := s.Encode()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := m.fs.CreateTemp(m.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		m.fs.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		m.fs.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		m.fs.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	final := filepath.Join(m.dir, fmt.Sprintf("%s%016x%s", filePref, s.LSN, fileSuf))
	if err := m.fs.Rename(tmpName, final); err != nil {
		m.fs.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := m.syncDir(); err != nil {
		return err
	}
	m.prune()
	mSaves.Inc()
	mSaveBytes.Add(uint64(len(data)))
	hSave.ObserveSince(t0)
	return nil
}

// LoadLatest returns the newest valid checkpoint, skipping corrupt or
// unreadable files (a crash mid-snapshot must never block recovery). It
// returns (nil, nil) when no valid checkpoint exists.
func (m *Manager) LoadLatest() (snap *Snapshot, err error) {
	_, _, err = m.latest(func(data []byte) (err error) {
		snap, err = Decode(data)
		return err
	})
	if snap != nil {
		mLoads.Inc()
	}
	return snap, err
}

// LatestRaw returns the newest valid checkpoint still in its framed on-disk
// encoding, plus the LSN it covers, skipping corrupt files exactly like
// LoadLatest. It checks the frame (magic, length, CRC) without decoding the
// payload and takes the LSN from the file name, which Save writes
// atomically with the bytes. The replication handshake ships these bytes
// verbatim; the follower decodes them and refuses them if they cover
// another LSN. (nil, 0, nil) when no valid checkpoint exists.
func (m *Manager) LatestRaw() ([]byte, uint64, error) {
	return m.latest(func(data []byte) error {
		_, err := verify(data)
		return err
	})
}

// latest walks the checkpoints newest-first and returns the first file
// check accepts, with the LSN its name carries. Unreadable and rejected
// files are counted and skipped; (nil, 0, nil) when none is left.
func (m *Manager) latest(check func(data []byte) error) ([]byte, uint64, error) {
	files, err := m.list()
	if err != nil {
		return nil, 0, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		data, err := m.fs.ReadFile(files[i].path)
		if err == nil {
			err = check(data)
		}
		if err == nil {
			return data, files[i].lsn, nil
		}
		mLoadSkips.Inc()
	}
	return nil, 0, nil
}

// OldestLSN returns the LSN of the oldest checkpoint kept, the one recovery
// falls back to when every newer one is unreadable, or 0 when there is
// none. The WAL must keep every record after it.
func (m *Manager) OldestLSN() (uint64, error) {
	files, err := m.list()
	if err != nil || len(files) == 0 {
		return 0, err
	}
	return files[0].lsn, nil
}

// ckFile is one checkpoint file and the LSN its name carries.
type ckFile struct {
	path string
	lsn  uint64
}

// list returns the checkpoint files sorted oldest-first, parsing each
// name's LSN once.
func (m *Manager) list() ([]ckFile, error) {
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []ckFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePref) || !strings.HasSuffix(name, fileSuf) {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, filePref), fileSuf), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, ckFile{path: filepath.Join(m.dir, name), lsn: lsn})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	return out, nil
}

func (m *Manager) prune() {
	files, err := m.list()
	if err != nil {
		return
	}
	for len(files) > keepFiles {
		m.fs.Remove(files[0].path)
		files = files[1:]
	}
}

// DropAfter removes every checkpoint covering an LSN greater than lsn. A
// fenced old primary calls it alongside wal.TruncateSuffix when rejoining:
// checkpoints taken past the epoch boundary capture diverged state and must
// not be offered to recovery. File names embed the covered LSN, so no file
// needs to be decoded.
func (m *Manager) DropAfter(lsn uint64) error {
	files, err := m.list()
	if err != nil {
		return err
	}
	dropped := false
	for _, f := range files {
		if f.lsn <= lsn {
			continue
		}
		if err := m.fs.Remove(f.path); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		dropped = true
	}
	if !dropped {
		return nil
	}
	return m.syncDir()
}

func (m *Manager) syncDir() error {
	d, err := m.fs.Open(m.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}
