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

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/randvar"
	"repro/internal/sketch"
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

// tupleState is one windowed tuple; fields are codec JSON (lossless).
type tupleState struct {
	Fields []json.RawMessage `json:"fields"`
	Prob   float64           `json:"prob"`
	ProbN  int               `json:"prob_n,omitempty"`
	Seq    uint64            `json:"seq"`
	Time   int64             `json:"time,omitempty"`
}

type windowState struct {
	Tuples []tupleState `json:"tuples"`
}

// colColumnState is one column of a columnar window snapshot. Kind uses
// ints (not the in-memory uint8s) so the arrays stay human-readable JSON
// rather than base64. Other maps decimal slot index → codec JSON for the
// slots whose kind is non-Gaussian.
type colColumnState struct {
	Kind  []int                      `json:"kind"`
	Mean  []float64                  `json:"mean,omitempty"`
	Var   []float64                  `json:"var,omitempty"`
	N     []int                      `json:"n,omitempty"`
	Other map[string]json.RawMessage `json:"other,omitempty"`
}

// colWindowState is the columnar (struct-of-arrays) window snapshot form:
// linearized oldest-first, per-tuple columns plus per-schema-column arrays.
type colWindowState struct {
	Prob  []float64        `json:"prob,omitempty"`
	ProbN []int            `json:"prob_n,omitempty"`
	Seq   []uint64         `json:"seq,omitempty"`
	Time  []int64          `json:"time,omitempty"`
	Cols  []colColumnState `json:"cols,omitempty"`
}

// groupWindow is the window of one GROUP BY key.
type groupWindow struct {
	Key       float64         `json:"key"`
	Window    *windowState    `json:"window,omitempty"`
	ColWindow *colWindowState `json:"col_window,omitempty"`
}

// QueryState is one registered continuous query: its identity, SQL, and
// serialized runtime state. Aggregate windows (ungrouped and per group) are
// written as col_window; the row form, window, is what older checkpoints
// hold and is still read. Join windows are rows in both directions.
type QueryState struct {
	ID        string          `json:"id"`
	SQL       string          `json:"sql"`
	Eval      dist.RandState  `json:"eval_rng"`
	Boot      dist.RandState  `json:"boot_rng"`
	Stats     core.QueryStats `json:"stats"`
	Window    *windowState    `json:"window,omitempty"`
	ColWindow *colWindowState `json:"col_window,omitempty"`
	Groups    []groupWindow   `json:"groups,omitempty"`
	JoinLeft  *windowState    `json:"join_left,omitempty"`
	JoinRight *windowState    `json:"join_right,omitempty"`
	// Sketch is the sketch-backend window, serialized directly: its state
	// is plain floats and integers (JSON float64 round-trips are exact), so
	// no codec translation layer is needed.
	Sketch *sketch.Window `json:"sketch,omitempty"`
}

// Snapshot is a complete engine checkpoint.
type Snapshot struct {
	// Version guards the format; readers reject unknown versions.
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
	snap := &Snapshot{Version: 1, LSN: lsn, Seq: eng.Seq(), Degrade: eng.DegradeLevel()}
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
		st := def.Query.State()
		qs := QueryState{
			ID:     def.ID,
			SQL:    def.SQL,
			Eval:   st.Eval,
			Boot:   st.Boot,
			Stats:  st.Stats,
			Sketch: st.Sketch,
		}
		var err error
		if qs.ColWindow, err = encodeColWindow(st.ColWindow); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", def.ID, err)
		}
		for _, g := range st.Groups {
			gs := groupWindow{Key: g.Key}
			if gs.ColWindow, err = encodeColWindow(g.ColWindow); err != nil {
				return nil, fmt.Errorf("checkpoint: query %s group %g: %w", def.ID, g.Key, err)
			}
			qs.Groups = append(qs.Groups, gs)
		}
		if qs.JoinLeft, err = encodeWindow(st.JoinLeft); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", def.ID, err)
		}
		if qs.JoinRight, err = encodeWindow(st.JoinRight); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", def.ID, err)
		}
		snap.Queries = append(snap.Queries, qs)
	}
	return snap, nil
}

func encodeWindow(ws *core.WindowState) (*windowState, error) {
	if ws == nil {
		return nil, nil
	}
	out := &windowState{Tuples: make([]tupleState, len(ws.Tuples))}
	for i, t := range ws.Tuples {
		ts := tupleState{
			Fields: make([]json.RawMessage, len(t.Fields)),
			Prob:   t.Prob,
			ProbN:  t.ProbN,
			Seq:    t.Seq,
			Time:   t.Time,
		}
		for j, f := range t.Fields {
			enc, err := codec.EncodeField(f)
			if err != nil {
				return nil, err
			}
			ts.Fields[j] = enc
		}
		out.Tuples[i] = ts
	}
	return out, nil
}

func encodeColWindow(cs *stream.ColumnWindowState) (*colWindowState, error) {
	if cs == nil {
		return nil, nil
	}
	out := &colWindowState{
		Prob:  cs.Prob,
		ProbN: cs.ProbN,
		Seq:   cs.Seq,
		Time:  cs.Time,
		Cols:  make([]colColumnState, len(cs.Cols)),
	}
	for c, col := range cs.Cols {
		oc := colColumnState{
			Kind: make([]int, len(col.Kind)),
			Mean: col.Mean,
			Var:  col.Var,
			N:    col.N,
		}
		for i, k := range col.Kind {
			oc.Kind[i] = int(k)
		}
		for slot, d := range col.Other {
			enc, err := codec.EncodeDistribution(d)
			if err != nil {
				return nil, err
			}
			if oc.Other == nil {
				oc.Other = make(map[string]json.RawMessage, len(col.Other))
			}
			oc.Other[strconv.Itoa(slot)] = enc
		}
		out.Cols[c] = oc
	}
	return out, nil
}

func decodeColWindow(cw *colWindowState) (*stream.ColumnWindowState, error) {
	if cw == nil {
		return nil, nil
	}
	out := &stream.ColumnWindowState{
		Prob:  cw.Prob,
		ProbN: cw.ProbN,
		Seq:   cw.Seq,
		Time:  cw.Time,
		Cols:  make([]stream.ColumnState, len(cw.Cols)),
	}
	// JSON omitempty drops empty arrays; rebuild them so an empty window
	// round-trips to a structurally valid (zero-length) snapshot.
	if out.Prob == nil {
		out.Prob = []float64{}
	}
	n := len(out.Prob)
	if out.ProbN == nil {
		out.ProbN = make([]int, n)
	}
	if out.Seq == nil {
		out.Seq = make([]uint64, n)
	}
	if out.Time == nil {
		out.Time = make([]int64, n)
	}
	for c, col := range cw.Cols {
		oc := stream.ColumnState{
			Kind: make([]uint8, len(col.Kind)),
			Mean: col.Mean,
			Var:  col.Var,
			N:    col.N,
		}
		for i, k := range col.Kind {
			if k < 0 || k > 255 {
				return nil, fmt.Errorf("checkpoint: columnar window column %d slot %d kind %d out of range", c, i, k)
			}
			oc.Kind[i] = uint8(k)
		}
		m := len(oc.Kind)
		if oc.Mean == nil {
			oc.Mean = make([]float64, m)
		}
		if oc.Var == nil {
			oc.Var = make([]float64, m)
		}
		if oc.N == nil {
			oc.N = make([]int, m)
		}
		for key, raw := range col.Other {
			slot, err := strconv.Atoi(key)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: columnar window column %d bad slot key %q", c, key)
			}
			d, err := codec.DecodeDistribution(raw)
			if err != nil {
				return nil, err
			}
			if oc.Other == nil {
				oc.Other = make(map[int]dist.Distribution, len(col.Other))
			}
			oc.Other[slot] = d
		}
		out.Cols[c] = oc
	}
	return out, nil
}

func decodeWindow(ws *windowState) (*core.WindowState, error) {
	if ws == nil {
		return nil, nil
	}
	out := &core.WindowState{Tuples: make([]core.TupleState, len(ws.Tuples))}
	for i, t := range ws.Tuples {
		ts := core.TupleState{
			Fields: make([]randvar.Field, len(t.Fields)),
			Prob:   t.Prob,
			ProbN:  t.ProbN,
			Seq:    t.Seq,
			Time:   t.Time,
		}
		for j, raw := range t.Fields {
			f, err := codec.DecodeField(raw)
			if err != nil {
				return nil, err
			}
			ts.Fields[j] = f
		}
		out.Tuples[i] = ts
	}
	return out, nil
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
	if snap.Version != 1 {
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
		st := &core.QueryState{Eval: qs.Eval, Boot: qs.Boot, Stats: qs.Stats, Sketch: qs.Sketch}
		if st.Window, err = decodeWindow(qs.Window); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", qs.ID, err)
		}
		if st.ColWindow, err = decodeColWindow(qs.ColWindow); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", qs.ID, err)
		}
		for _, g := range qs.Groups {
			gs := core.GroupWindowState{Key: g.Key}
			if g.ColWindow != nil {
				cw, err := decodeColWindow(g.ColWindow)
				if err != nil {
					return nil, fmt.Errorf("checkpoint: query %s group %g: %w", qs.ID, g.Key, err)
				}
				gs.ColWindow = cw
			} else {
				gw, err := decodeWindow(g.Window)
				if err != nil {
					return nil, fmt.Errorf("checkpoint: query %s group %g: %w", qs.ID, g.Key, err)
				}
				if gw == nil {
					gw = &core.WindowState{Tuples: []core.TupleState{}}
				}
				gs.Window = *gw
			}
			st.Groups = append(st.Groups, gs)
		}
		if st.JoinLeft, err = decodeWindow(qs.JoinLeft); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", qs.ID, err)
		}
		if st.JoinRight, err = decodeWindow(qs.JoinRight); err != nil {
			return nil, fmt.Errorf("checkpoint: query %s: %w", qs.ID, err)
		}
		if err := q.SetState(st); err != nil {
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
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &snap, nil
}

// Manager stores checkpoints in a directory, keeping the newest few.
type Manager struct {
	dir string
	fs  fault.FS
}

// NewManager opens (creating if needed) a checkpoint directory.
func NewManager(dir string) (*Manager, error) {
	return NewManagerFS(dir, nil)
}

// NewManagerFS is NewManager over an injectable filesystem (fault injection
// in the chaos suite); nil fs uses the real one.
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
func (m *Manager) LoadLatest() (*Snapshot, error) {
	files, err := m.list()
	if err != nil {
		return nil, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		data, err := m.fs.ReadFile(files[i])
		if err != nil {
			mLoadSkips.Inc()
			continue
		}
		snap, err := Decode(data)
		if err != nil {
			mLoadSkips.Inc()
			continue
		}
		mLoads.Inc()
		return snap, nil
	}
	return nil, nil
}

// LatestRaw returns the newest valid checkpoint still in its framed on-disk
// encoding, plus the LSN it covers, skipping corrupt files exactly like
// LoadLatest. The replication handshake ships these bytes verbatim so the
// follower can verify and decode them itself. (nil, 0, nil) when no valid
// checkpoint exists.
func (m *Manager) LatestRaw() ([]byte, uint64, error) {
	files, err := m.list()
	if err != nil {
		return nil, 0, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		data, err := m.fs.ReadFile(files[i])
		if err != nil {
			mLoadSkips.Inc()
			continue
		}
		snap, err := Decode(data)
		if err != nil {
			mLoadSkips.Inc()
			continue
		}
		return data, snap.LSN, nil
	}
	return nil, 0, nil
}

// list returns checkpoint paths sorted oldest-first (names embed the LSN
// in fixed-width hex, so lexical order is LSN order).
func (m *Manager) list() ([]string, error) {
	entries, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePref) || !strings.HasSuffix(name, fileSuf) {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, filePref), fileSuf), 16, 64); err != nil {
			continue
		}
		out = append(out, filepath.Join(m.dir, name))
	}
	sort.Strings(out)
	return out, nil
}

func (m *Manager) prune() {
	files, err := m.list()
	if err != nil {
		return
	}
	for len(files) > keepFiles {
		m.fs.Remove(files[0])
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
	for _, path := range files {
		name := filepath.Base(path)
		at, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, filePref), fileSuf), 16, 64)
		if err != nil {
			continue
		}
		if at <= lsn {
			continue
		}
		if err := m.fs.Remove(path); err != nil {
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
