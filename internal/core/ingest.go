package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// Sharded batched ingest. The ingest hot path no longer serializes on a
// global engine lock: every stream is a shard carrying its own mutex and
// the route of the queries it feeds (route.go), and IngestBatch holds
// exactly the shards a batch can touch — the target stream plus the partner
// streams of any join query bound to it, the route's lock group. Inserts
// into unrelated streams run concurrently; inserts into the same stream (or
// into streams coupled by a join) serialize, which is what keeps every
// Query single-goroutine and the engine bit-identical to the globally
// locked implementation.
//
// Lock order (outermost first): ctlMu → shard locks in sorted name order →
// seqMu. IngestBatch acquires shard locks by sorted name and revalidates
// the route after acquisition (a concurrent Exclusive-holding QUERY
// registration may have bound a new join between reading the route and
// locking its group), so acquisition can never deadlock and never runs with
// a stale group.

var (
	mIngestBatches = metrics.Default.Counter("asdb_ingest_batches_total",
		"ingest batches applied (an INSERT is a 1-tuple batch)")
	hIngestRows = metrics.Default.Histogram("asdb_ingest_batch_rows",
		"tuples per ingest batch", batchRowBuckets)
	hShardWait = metrics.Default.Histogram("asdb_ingest_shard_wait_seconds",
		"wall time spent acquiring the shard lock group for one batch",
		metrics.DefBuckets)
	mShardRetries = metrics.Default.Counter("asdb_ingest_shard_lock_retries_total",
		"lock-group acquisitions retried because the group changed while unlocked")
)

var batchRowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// IngestRow is one tuple of an ingest batch, pre-parse: its field values
// and its event time.
type IngestRow struct {
	Fields []randvar.Field
	Time   int64
}

// QueryResults collects one bound query's outputs for a whole batch, in
// tuple arrival order. Err carries the first push error; pushes after an
// error continue with the remaining tuples (matching single-tuple ingest,
// where one failed push never blocks later tuples), so replaying the same
// batch reproduces the same per-query state.
type QueryResults struct {
	ID      string
	Results []Result
	Err     error
}

// Bind registers a compiled query under id with the shards of its input
// stream(s), so IngestBatch routes matching tuples into it. Bind performs
// no shard locking itself: callers must either hold Exclusive (the server's
// control plane) or be single-threaded with respect to ingest (the REPL).
func (e *Engine) Bind(id string, q *Query) error {
	if q == nil {
		return errors.New("core: nil query")
	}
	if q.eng != e {
		return errors.New("core: query compiled against a different engine")
	}
	names := q.SourceStreams()
	defs := make([]*streamDef, 0, len(names))
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.bound[id]; dup {
		return fmt.Errorf("core: query id %q already bound", id)
	}
	for _, name := range names {
		def, ok := e.streams[name]
		if !ok {
			return fmt.Errorf("core: unknown stream %q", name)
		}
		defs = append(defs, def)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	bq := &boundQuery{id: id, q: q, defs: defs}
	for _, def := range defs {
		i := sort.Search(len(def.queries), func(i int) bool { return def.queries[i].id >= id })
		def.queries = append(def.queries, nil)
		copy(def.queries[i+1:], def.queries[i:])
		def.queries[i] = bq
	}
	e.bound[id] = bq
	q.bound = true
	// Planner pass at registration: join (or found) the query's
	// shared-state group. Content-equality admission means recovered
	// queries re-merge into shared groups only when their restored windows
	// hold identical contents.
	e.attachShared(q)
	for _, def := range defs {
		def.route = compileRoute(def)
	}
	return nil
}

// Unbind removes a bound query from its shards. Same locking contract as
// Bind. It reports whether the id was bound.
func (e *Engine) Unbind(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	bq, ok := e.bound[id]
	if !ok {
		return false
	}
	delete(e.bound, id)
	bq.q.bound = false
	for _, def := range bq.defs {
		for i, cand := range def.queries {
			if cand == bq {
				def.queries = append(def.queries[:i], def.queries[i+1:]...)
				break
			}
		}
	}
	e.detachShared(bq.q)
	for _, def := range bq.defs {
		def.route = compileRoute(def)
	}
	return true
}

// Bound returns the query bound under id, or nil.
func (e *Engine) Bound(id string) *Query {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if bq, ok := e.bound[id]; ok {
		return bq.q
	}
	return nil
}

// Exclusive quiesces the engine: it acquires every shard lock (in sorted
// name order) and returns a release function. While held, no IngestBatch
// can run, making it safe to Bind/Unbind queries, capture checkpoints, or
// mutate query state. Exclusive calls are serialized by ctlMu, so DDL and
// checkpoints never interleave.
func (e *Engine) Exclusive() (release func()) {
	e.ctlMu.Lock()
	e.mu.RLock()
	defs := make([]*streamDef, 0, len(e.streams))
	for _, def := range e.streams {
		defs = append(defs, def)
	}
	e.mu.RUnlock()
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	for _, def := range defs {
		def.mu.Lock()
	}
	return func() {
		for i := len(defs) - 1; i >= 0; i-- {
			defs[i].mu.Unlock()
		}
		e.ctlMu.Unlock()
	}
}

// SourceStreams returns the canonical (lower-cased) names of the query's
// input stream(s) — one for scans, two for joins.
func (q *Query) SourceStreams() []string {
	if q.join != nil {
		return []string{q.join.leftName, q.join.rightName}
	}
	return []string{strings.ToLower(q.in.Name)}
}

// lockGroupOf computes sd's lock group — sd plus every shard reachable
// through a query bound to sd — sorted by name. One step of closure
// suffices: a query's defs always include all of its own input shards, and
// queries bound to a partner shard but not to sd never see tuples of sd.
// compileRoute calls it; IngestBatch reads the result from the route.
func lockGroupOf(sd *streamDef) []*streamDef {
	if len(sd.queries) == 0 {
		return []*streamDef{sd}
	}
	set := map[string]*streamDef{sd.name: sd}
	for _, bq := range sd.queries {
		for _, def := range bq.defs {
			set[def.name] = def
		}
	}
	group := make([]*streamDef, 0, len(set))
	for _, def := range set {
		group = append(group, def)
	}
	sort.Slice(group, func(i, j int) bool { return group[i].name < group[j].name })
	return group
}

// lockGroup acquires the lock group of sd's route and returns the route.
// Fast path: sd feeds no join, so sd.mu alone covers the batch. Slow path:
// read the route under sd.mu, release, acquire its whole lock group in
// sorted order, and retry if a concurrent Exclusive-holder recompiled the
// route in between. Locks are only ever awaited while holding
// lower-ordered names (or nothing), so the loop cannot deadlock against
// other ingests or Exclusive.
func (e *Engine) lockGroup(sd *streamDef) *route {
	for {
		sd.mu.Lock()
		r := sd.route
		if len(r.lock) == 1 {
			return r
		}
		sd.mu.Unlock()
		for _, def := range r.lock {
			def.mu.Lock()
		}
		if sd.route == r {
			return r
		}
		unlockGroup(r.lock)
		mShardRetries.Inc()
	}
}

func unlockGroup(group []*streamDef) {
	for i := len(group) - 1; i >= 0; i-- {
		group[i].mu.Unlock()
	}
}

// MaxSampleSize bounds the sample size n of every field a live ingest
// admits: N()'s n, H()'s count total, S()'s observation count and a codec
// field's n. The bootstrap backend draws n·r values for a field it must
// sample itself (r resamples, 20 by default) into one buffer, so an
// unbounded n is an unbounded allocation on the ingest path; 2¹⁶ keeps that
// buffer at 10 MiB for r = 20, far above the sample sizes the intervals are
// meant for.
const MaxSampleSize = 1 << 16

// admit refuses a tuple a live ingest must not journal: one with a field
// learned from more than MaxSampleSize observations, or one whose
// distribution can draw a value that is not finite (dist.CheckFiniteDraws).
func admit(t *stream.Tuple) error {
	for i, f := range t.Fields {
		if f.N > MaxSampleSize {
			return fmt.Errorf("core: field %q has sample size %d, above the bound %d",
				t.Schema.Columns[i].Name, f.N, MaxSampleSize)
		}
		if err := dist.CheckFiniteDraws(f.Dist); err != nil {
			return fmt.Errorf("core: field %q: %w", t.Schema.Columns[i].Name, err)
		}
	}
	return nil
}

// IngestBatch builds, sequences, and pushes a batch of tuples for one
// stream, returning per-query results keyed and ordered by query id.
//
// The batch is applied atomically with respect to other ingests on the same
// shard group: tuples receive consecutive sequence numbers, and every bound
// query sees the whole batch in arrival order. Each plan group steps
// through it in chunks of up to stream.AheadWidth admitted tuples, one
// closed-form scan per chunk (route.go), and delivery is query-major: each
// query's results come back together, in tuple order. Scalar and join
// queries push the whole batch one query after another. Every query owns
// its randomness and no query reads another's state, so results and RNG
// evolution are deterministic for a given arrival order of batches.
//
// commit, when non-nil, runs inside the sequencing critical section before
// any sequence number is consumed — the durability layer journals the batch
// there, which makes WAL order provably equal to engine sequence order. A
// commit error aborts the batch with the engine untouched.
//
// A batch with a commit hook is live, on its way into the journal, and every
// tuple must pass admit first. A batch without one is applied from a
// journal (WAL replay, a follower applying its primary's records) and is
// taken as it was journaled: a record an older version admitted still
// replays.
func (e *Engine) IngestBatch(streamName string, rows []IngestRow, commit func() error) ([]QueryResults, error) {
	if len(rows) == 0 {
		return nil, errors.New("core: empty ingest batch")
	}
	e.mu.RLock()
	sd, ok := e.streams[keyOf(streamName)]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown stream %q", streamName)
	}

	recovering := e.recovering.Load()
	t0 := time.Now()
	r := e.lockGroup(sd)
	defer unlockGroup(r.lock)
	if !recovering {
		hShardWait.ObserveSince(t0)
		mIngestBatches.Inc()
		hIngestRows.Observe(float64(len(rows)))
	}

	// Build and validate every tuple before consuming sequence numbers or
	// committing, so a malformed row aborts the whole batch cleanly.
	tuples := make([]*stream.Tuple, len(rows))
	for i, row := range rows {
		t, err := stream.NewTuple(sd.schema, row.Fields)
		if err == nil && commit != nil {
			err = admit(t)
		}
		if err != nil {
			return nil, fmt.Errorf("core: batch row %d: %w", i, err)
		}
		t.Time = row.Time
		tuples[i] = t
	}

	e.seqMu.Lock()
	if commit != nil {
		if err := commit(); err != nil {
			e.seqMu.Unlock()
			return nil, err
		}
	}
	for _, t := range tuples {
		e.seq++
		t.Seq = e.seq
	}
	e.seqMu.Unlock()
	if !recovering {
		mTuples.Add(uint64(len(tuples)))
	}

	b := batchOut{out: make([]QueryResults, len(sd.queries))}
	for i, bq := range sd.queries {
		b.out[i].ID = bq.id
	}
	// A group member emits at most one result per tuple, so one slab holds
	// every member's results, each member's share pre-sized.
	slab := make([]Result, r.members*len(tuples))
	for _, rg := range r.groups {
		for _, m := range rg.members {
			b.out[m.slot].Results, slab = slab[:0:len(tuples)], slab[len(tuples):]
		}
	}
	for _, rg := range r.groups {
		rg.g.step(rg.members, tuples, &b, recovering)
	}
	for _, s := range r.others {
		for _, t := range tuples {
			res, err := s.q.push(t)
			if err != nil {
				b.fail(s.slot, err)
				continue
			}
			b.out[s.slot].Results = append(b.out[s.slot].Results, res...)
		}
	}
	for i := range b.out {
		if len(b.out[i].Results) == 0 {
			b.out[i].Results = nil
		}
	}
	b.finish()
	return b.out, nil
}
