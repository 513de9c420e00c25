// Package core is the accuracy-aware uncertain stream database engine —
// the paper's primary contribution assembled over the substrates:
//
//   - learned distributions retain their sample sizes (package learn),
//   - query processing propagates de facto sample sizes (Lemma 3, package
//     randvar) through expressions, filters, and window aggregates
//     (package stream),
//   - every query result carries accuracy information — confidence
//     intervals on distribution parameters and on tuple membership
//     probabilities — computed analytically (Theorem 1, package accuracy)
//     or via bootstraps (package bootstrap),
//   - significance predicates with coupled tests gate decisions at
//     user-specified error rates (package hypothesis).
//
// The Engine hosts named streams; Compile turns a SQL statement (package
// sql) into a continuous Query that consumes tuples and emits Results.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/plan"
	"repro/internal/randvar"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// AccuracyMethod selects how query-result accuracy information is obtained
// (§II analytical vs §III bootstrap).
type AccuracyMethod int

const (
	// AccuracyNone disables accuracy computation (the accuracy-oblivious
	// baseline; used to measure pure query-processing throughput).
	AccuracyNone AccuracyMethod = iota
	// AccuracyAnalytical uses Lemmas 1–2 via Theorem 1.
	AccuracyAnalytical
	// AccuracyBootstrap uses algorithm BOOTSTRAP-ACCURACY-INFO.
	AccuracyBootstrap
	// AccuracySketch replaces the materialized window with bounded-memory
	// mergeable sketches (package sketch): O(polylog) memory per window,
	// block-granular slide, and honest — wider, but calibrated — intervals
	// derived from the sketch error bounds. Only ungrouped count-windowed
	// aggregates support it; it is usually selected per query via the SQL
	// BACKEND SKETCH clause rather than engine-wide.
	AccuracySketch
)

func (m AccuracyMethod) String() string {
	switch m {
	case AccuracyNone:
		return "none"
	case AccuracyAnalytical:
		return "analytical"
	case AccuracyBootstrap:
		return "bootstrap"
	case AccuracySketch:
		return "sketch"
	}
	return fmt.Sprintf("AccuracyMethod(%d)", int(m))
}

// Config tunes an Engine. The zero value is usable after Normalize.
type Config struct {
	// Level is the confidence level of reported intervals (default 0.9,
	// the level used throughout the paper's experiments).
	Level float64
	// Method selects the accuracy backend (default analytical).
	Method AccuracyMethod
	// Seed seeds the engine's deterministic RNG (default 1).
	Seed uint64
	// MonteCarloValues is the value-sequence length m for Monte Carlo
	// expression evaluation and bootstrap accuracy (default
	// randvar.DefaultMonteCarloValues).
	MonteCarloValues int
	// HistogramBins is the bucket count for learned result histograms
	// (default randvar.DefaultHistogramBins).
	HistogramBins int
	// BootstrapResamples is the d.f. resample count r when the bootstrap
	// backend must draw its own values (default 20, the paper's Example 7).
	BootstrapResamples int
	// DropUnsure controls significance predicates: when true, tuples whose
	// coupled test returns UNSURE are dropped; when false (the default)
	// they are kept and flagged in the Result.
	DropUnsure bool
	// MinProb drops result tuples whose membership probability falls
	// below it (0 keeps everything).
	MinProb float64
	// Workers is ignored: the accuracy kernel runs serially on the query's
	// goroutine.
	//
	// Deprecated: kept only so existing callers compile; it will be removed.
	Workers int
	// DataDir enables the durability layer: a write-ahead log of ingested
	// tuples and DDL/query registrations plus periodic engine checkpoints
	// live under it, and a daemon started over a non-empty DataDir
	// recovers its pre-crash state deterministically. Empty (the default)
	// disables durability.
	DataDir string
	// FsyncPolicy controls when WAL appends reach stable storage:
	// "always" (fsync per record), "interval" (background fsync, default),
	// or "none" (rely on the OS). Only meaningful with DataDir set.
	FsyncPolicy string
	// CheckpointEvery writes an engine checkpoint after that many WAL
	// records (default 1024), bounding recovery replay time. Only
	// meaningful with DataDir set.
	CheckpointEvery int
	// WALSegmentBytes overrides the WAL segment rotation threshold
	// (default 4MiB; see wal.DefaultSegmentBytes). Smaller segments bound
	// how much history a checkpoint retains — replication catch-up tests
	// use tiny segments to force the snapshot path. Only meaningful with
	// DataDir set.
	WALSegmentBytes int64
	// SketchBlocks is the block count of sketch-backend windows (default
	// sketch.DefaultBlocks): the window slides and emits at block
	// granularity, over-covering by at most one block of rows.
	SketchBlocks int
	// SketchK is the per-level quantile-sketch capacity of sketch-backend
	// windows (default sketch.DefaultQuantileK); larger K tightens the
	// deterministic rank error bound at proportional memory cost.
	SketchK int
}

// Normalize fills defaults and validates ranges.
func (c Config) Normalize() (Config, error) {
	if c.Level == 0 {
		c.Level = 0.9
	}
	if !(c.Level > 0 && c.Level < 1) { // NaN fails both comparisons
		return c, fmt.Errorf("core: confidence level %v outside (0,1)", c.Level)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MonteCarloValues == 0 {
		c.MonteCarloValues = randvar.DefaultMonteCarloValues
	}
	if c.MonteCarloValues < 2 {
		return c, fmt.Errorf("core: MonteCarloValues %d too small", c.MonteCarloValues)
	}
	if c.HistogramBins == 0 {
		c.HistogramBins = randvar.DefaultHistogramBins
	}
	if c.HistogramBins < 1 {
		return c, fmt.Errorf("core: HistogramBins %d too small", c.HistogramBins)
	}
	if c.BootstrapResamples == 0 {
		c.BootstrapResamples = 20 // paper Example 7
	}
	if c.BootstrapResamples < 2 {
		return c, fmt.Errorf("core: BootstrapResamples %d too small", c.BootstrapResamples)
	}
	if c.MinProb < 0 || c.MinProb > 1 {
		return c, fmt.Errorf("core: MinProb %v outside [0,1]", c.MinProb)
	}
	if c.FsyncPolicy == "" {
		c.FsyncPolicy = "interval"
	}
	switch c.FsyncPolicy {
	case "always", "interval", "none":
	default:
		return c, fmt.Errorf("core: FsyncPolicy %q, want always | interval | none", c.FsyncPolicy)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1024
	}
	if c.CheckpointEvery < 1 {
		return c, fmt.Errorf("core: CheckpointEvery %d, need ≥ 1", c.CheckpointEvery)
	}
	if c.SketchBlocks == 0 {
		c.SketchBlocks = sketch.DefaultBlocks
	}
	if c.SketchBlocks < 1 {
		return c, fmt.Errorf("core: SketchBlocks %d, need ≥ 1", c.SketchBlocks)
	}
	if c.SketchK == 0 {
		c.SketchK = sketch.DefaultQuantileK
	}
	if c.SketchK < 8 {
		return c, fmt.Errorf("core: SketchK %d, need ≥ 8", c.SketchK)
	}
	return c, nil
}

// DefaultConfig returns the engine defaults used across the examples and
// experiments.
func DefaultConfig() Config {
	c, _ := Config{}.Normalize()
	return c
}

// Engine is an accuracy-aware uncertain stream database instance.
// Stream registration and query compilation are safe for concurrent use.
// Ingest is sharded per stream: IngestBatch serializes against the target
// stream's shard lock (plus the shards of any join partners), so inserts
// into unrelated streams proceed in parallel while each compiled Query is
// still driven from exactly one goroutine at a time. An unbound Query may
// be driven directly via Push, single-goroutine by contract; a bound one
// takes tuples only through IngestBatch.
type Engine struct {
	cfg Config

	// mu guards the streams map and the bound-query index. Shard-level
	// state (streamDef.mu, streamDef.queries) has its own locking.
	mu      sync.RWMutex
	streams map[string]*streamDef
	bound   map[string]*boundQuery

	// seqMu guards the engine sequence counter. It is a leaf lock taken
	// after shard locks; IngestBatch also runs its commit hook under it so
	// that journal order provably equals sequence order.
	seqMu sync.Mutex
	seq   uint64

	// ctlMu serializes Exclusive (control-plane quiesce) so two
	// checkpoints or registrations cannot interleave shard acquisition.
	ctlMu sync.Mutex

	// recovering marks WAL replay: steady-state global metrics are
	// suppressed (segregated into recovery counters) so a recovered
	// engine's metric snapshot matches a clean run's.
	recovering atomic.Bool

	// degrade is the accuracy-degradation (load-shedding) level: 0 = full
	// accuracy, higher levels divide resample counts (see shedDivisor).
	// Transitions are journaled by the server and restored from checkpoints,
	// so replayed runs evaluate queries with the same resample counts — and
	// the same RNG consumption — as the live run.
	degrade atomic.Int32

	// plans is the multi-query planner's shared-state registry. Group
	// membership mutates only under the Bind/Unbind registration contract;
	// see plan_shared.go.
	plans *plan.Registry
}

// MaxDegradeLevel bounds the load-shedding ladder: each level halves the
// bootstrap/Monte Carlo resample budget relative to the previous one.
const MaxDegradeLevel = 3

// shedDivisor returns the resample-count divisor for a degrade level
// (1, 2, 4, 8 for levels 0..3).
func shedDivisor(level int) int {
	if level <= 0 {
		return 1
	}
	if level > MaxDegradeLevel {
		level = MaxDegradeLevel
	}
	return 1 << level
}

// DegradeLevel returns the current accuracy-degradation level (0 = full
// accuracy).
func (e *Engine) DegradeLevel() int { return int(e.degrade.Load()) }

// SetDegradeLevel sets the accuracy-degradation level, clamped to
// [0, MaxDegradeLevel]. Callers that require deterministic recovery must
// order the transition against ingest (the server journals it under an
// exclusive engine lock).
func (e *Engine) SetDegradeLevel(level int) {
	if level < 0 {
		level = 0
	}
	if level > MaxDegradeLevel {
		level = MaxDegradeLevel
	}
	e.degrade.Store(int32(level))
	gDegrade.Set(int64(level))
}

// streamDef is one stream's shard: its schema, its shard lock, the queries
// fed by it (sorted by id so delivery order is deterministic), and the route
// IngestBatch walks, compiled from them.
type streamDef struct {
	name    string // canonical (lower-cased) key
	schema  *stream.Schema
	mu      sync.Mutex
	queries []*boundQuery
	route   *route
}

// boundQuery ties a registered query id to its compiled query and the
// shards (input streams) that must be held to push into it.
type boundQuery struct {
	id   string
	q    *Query
	defs []*streamDef // sorted by name, deduplicated
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) (*Engine, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     norm,
		streams: make(map[string]*streamDef),
		bound:   make(map[string]*boundQuery),
		plans:   plan.NewRegistry(),
	}, nil
}

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Planner returns the multi-query planner's shared-state registry. Exposed
// for EXPLAIN-style introspection and tests; group membership is
// engine-internal.
func (e *Engine) Planner() *plan.Registry { return e.plans }

// RegisterStream declares a stream with the given schema.
func (e *Engine) RegisterStream(schema *stream.Schema) error {
	if schema == nil {
		return errors.New("core: nil schema")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := keyOf(schema.Name)
	if _, dup := e.streams[key]; dup {
		return fmt.Errorf("core: stream %q already registered", schema.Name)
	}
	sd := &streamDef{name: key, schema: schema}
	sd.route = compileRoute(sd)
	e.streams[key] = sd
	if !e.recovering.Load() {
		mStreams.Inc()
	}
	return nil
}

// Schema returns the schema of a registered stream.
func (e *Engine) Schema(name string) (*stream.Schema, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	def, ok := e.streams[keyOf(name)]
	if !ok {
		return nil, fmt.Errorf("core: unknown stream %q", name)
	}
	return def.schema, nil
}

// Streams returns the registered stream names, sorted.
func (e *Engine) Streams() []string {
	e.mu.RLock()
	out := make([]string, 0, len(e.streams))
	for _, def := range e.streams {
		out = append(out, def.schema.Name)
	}
	e.mu.RUnlock()
	sort.Strings(out)
	return out
}

// NewTuple builds a tuple for a registered stream, assigning it the next
// sequence number.
func (e *Engine) NewTuple(streamName string, fields []randvar.Field) (*stream.Tuple, error) {
	schema, err := e.Schema(streamName)
	if err != nil {
		return nil, err
	}
	t, err := stream.NewTuple(schema, fields)
	if err != nil {
		return nil, err
	}
	e.seqMu.Lock()
	e.seq++
	t.Seq = e.seq
	e.seqMu.Unlock()
	if !e.recovering.Load() {
		mTuples.Inc()
	}
	return t, nil
}

// Seq returns the engine's sequence counter — the number of tuples and
// query evaluators created so far. The durability layer records it in
// checkpoints so a recovered engine continues the exact numbering (and thus
// the exact per-query evaluator seeds) of the pre-crash run.
func (e *Engine) Seq() uint64 {
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	return e.seq
}

// RestoreSeq forces the sequence counter during crash recovery. Call only
// after every checkpointed query has been recompiled, so that compilation's
// own seq consumption is overwritten by the checkpointed value.
func (e *Engine) RestoreSeq(seq uint64) {
	e.seqMu.Lock()
	e.seq = seq
	e.seqMu.Unlock()
}

// Clear removes every bound query and registered stream and resets the
// sequence counter and degrade level, returning the engine to its
// just-constructed state. The replication layer uses it when a follower
// must fast-forward onto a newer primary snapshot: its current state is a
// strict prefix of the snapshot's, so it is discarded wholesale and
// replaced. Callers must hold Exclusive (no ingest may run) and must
// rebuild any state they still need — Clear keeps nothing.
func (e *Engine) Clear() {
	e.mu.RLock()
	ids := make([]string, 0, len(e.bound))
	for id := range e.bound {
		ids = append(ids, id)
	}
	e.mu.RUnlock()
	sort.Strings(ids)
	for _, id := range ids {
		e.Unbind(id) // detaches shared-state groups properly
	}
	e.mu.Lock()
	e.streams = make(map[string]*streamDef)
	e.mu.Unlock()
	e.seqMu.Lock()
	e.seq = 0
	e.seqMu.Unlock()
	e.degrade.Store(0)
}

// SetRecovering flags (or clears) WAL-replay mode. While set, steady-state
// global metrics are suppressed — replayed pushes count only toward
// recovery-segregated counters — so a recovered process's metric snapshot
// reflects post-recovery activity exactly like a freshly booted one.
// Per-query state (stats, telemetry rings) still updates during replay:
// that state is being reconstructed, not observed.
func (e *Engine) SetRecovering(v bool) { e.recovering.Store(v) }

// LearnField turns a raw sample into a probabilistic field using the given
// learner, retaining the sample size for accuracy tracking — the paper's
// transformation of raw records into a single record with a distribution
// (§I, Figure 1).
func LearnField(l learn.Learner, s *learn.Sample) (randvar.Field, error) {
	if l == nil {
		return randvar.Field{}, errors.New("core: nil learner")
	}
	d, err := l.Learn(s)
	if err != nil {
		return randvar.Field{}, err
	}
	return randvar.Field{Dist: d, N: s.Size()}, nil
}

// newEvaluator builds a per-query expression evaluator with an independent
// RNG stream.
func (e *Engine) newEvaluator() *randvar.Evaluator {
	e.seqMu.Lock()
	e.seq++
	seed := e.cfg.Seed + e.seq*0x9e3779b97f4a7c15
	e.seqMu.Unlock()
	ev := randvar.NewEvaluator(dist.NewRand(seed))
	ev.Values = e.cfg.MonteCarloValues
	ev.Bins = e.cfg.HistogramBins
	return ev
}

func keyOf(name string) string {
	b := []byte(name)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
