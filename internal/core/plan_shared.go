package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/accuracy"
	"repro/internal/plan"
	"repro/internal/randvar"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// This file is the engine half of the multi-query planner (package plan
// holds the static analysis and the registry). A shared-state group aliases
// every member query's window onto one buffer and runs the per-push
// pipeline once per ingested tuple instead of once per query:
//
//   - the filter (statically RNG-free for shareable queries, see
//     plan.FilterShareable) is evaluated once and its outcome replayed;
//   - the window buffer (ColumnWindow or sketch ring) is pushed once;
//   - aggregates are evaluated once: every closed-form aggregate any
//     member requests is computed once per emission (LinearUniformMoments,
//     one scan per column), Monte Carlo aggregates get one shared column
//     materialization;
//   - when every member runs the identical output plan under an accuracy
//     backend that consumes no per-query randomness, the fully decorated
//     emission (output tuple, accuracy infos, membership interval) is
//     built once and shared verbatim.
//
// Determinism is the design constraint, not a side effect: every shared
// computation is provably identical to what each member would have
// computed alone (same float summation order, same RNG non-consumption,
// same error values), so DATA output is bit-identical to the unshared
// path at any worker count and across crash recovery. Aggregates that do
// consume the member's Monte Carlo evaluator (MIN/MAX, non-Gaussian
// AVG/SUM) or its bootstrap RNG stay per-member over the shared inputs,
// keeping each member's RNG evolution — and therefore its checkpoints —
// exactly as unshared.
//
// Cache lifecycle: IngestBatch is query-major (all tuples through member
// 1, then member 2, …), so the first member reaching a sequence number
// computes its emission and later members consume it; the entry dies when
// the last member has replayed it, and the window's own advance produces
// the next entry — window-advance-driven invalidation. Group membership
// only changes under the engine's Exclusive/single-threaded registration
// contract, between batches, when the cache is provably empty.

// planProfile is a compiled query's shareability verdict plus the group
// key it would share under.
type planProfile struct {
	plan.Decision
	Key plan.Key
	// Sig is the canonical output-plan signature (label:column:kind per
	// output column): groups whose members all carry the same signature
	// can share fully built emissions, not just window state.
	Sig string
}

// aggSpec identifies one aggregate computation over a shared window.
type aggSpec struct {
	col  int
	kind stream.AggKind
}

// sharedAggVal is one closed-form aggregate computed once per emission;
// err is the raw (unwrapped) error so each member can wrap it with its own
// output label exactly as the unshared path would.
type sharedAggVal struct {
	field randvar.Field
	err   error
}

// sharedResult is a fully built emission — the output tuple, the
// accuracy-info map, the infos in emission order (for per-query telemetry),
// and the membership-probability interval — that emitShared hands to a
// query: shared verbatim by every member of a signature-uniform group, and
// what the sketch backend builds for any query, grouped or not.
type sharedResult struct {
	tuple     *stream.Tuple
	fields    map[string]*accuracy.Info
	infos     []*accuracy.Info
	tupleProb *accuracy.Interval
}

// sharedEmission caches everything one input sequence number produced for
// the group, for replay by members that reach it later in the batch.
type sharedEmission struct {
	remaining int // members yet to consume the entry

	filtered  bool // a WHERE clause ran
	filterErr error
	outcome   predOutcome

	// Columnar window stage (column groups only).
	full  bool
	count int
	aggs  map[aggSpec]sharedAggVal
	mat   map[int][]randvar.Field

	// Sketch stage (sketch groups only): the push error, if any.
	err error

	// res is the fully shared emission. For a column group nil means
	// members must assemble (and decorate) their own results from aggs/mat;
	// for a sketch group it means the push sealed no full window.
	res *sharedResult
}

// sharedGroup is one live shared-state equivalence class. Exactly one of
// win/sk is set. Membership mutates only under the engine registration
// contract; the atomics exist because EXPLAIN renders sharers and
// hit counters without quiescing ingest.
type sharedGroup struct {
	key     plan.Key
	win     *stream.ColumnWindow
	sk      *sketch.Window
	members []*Query
	// specs refcounts every aggregate any member requests, so one pass
	// computes the union.
	specs map[aggSpec]int
	// uniform is set when every member runs the identical output plan
	// under an accuracy backend free of per-query randomness — the
	// precondition for sharing fully built emissions.
	uniform bool
	cache   map[uint64]*sharedEmission

	sharers        atomic.Int32
	leads, follows atomic.Uint64
}

// planProfile computes the query's shareability profile at compile time.
func (q *Query) planProfileOf() planProfile {
	p := planProfile{Decision: plan.Analyze(q.stmt, q.method.String())}
	if !p.Shareable {
		return p
	}
	for _, oc := range q.outPlan {
		if len(p.Sig) > 0 {
			p.Sig += ","
		}
		p.Sig += fmt.Sprintf("%s:%d:%s", oc.agg.label, oc.agg.colIdx, oc.agg.kind)
	}
	filter := ""
	if q.stmt.Where != nil {
		filter = q.stmt.Where.String()
	}
	p.Key = plan.Key{
		Stream:  keyOf(q.in.Name),
		Filter:  filter,
		Rows:    q.stmt.Window.Rows,
		Backend: q.method.String(),
	}
	if q.sketchWin != nil {
		// A sketch window tracks one moment column per aggregate item, so
		// only identical aggregate lists can share one.
		p.Key.Sig = p.Sig
	}
	return p
}

// attachShared joins q to its shared-state group (creating one if needed),
// aliasing q's window onto the group's. Called from Bind under the
// engine's registration contract (Exclusive or single-threaded), so no
// push is in flight and the group cache is empty.
func (e *Engine) attachShared(q *Query) {
	if e.plans == nil || q.shared != nil || !q.prof.Shareable {
		return
	}
	join := func(state any) bool {
		g := state.(*sharedGroup)
		if len(g.cache) != 0 {
			return false
		}
		if g.sk != nil {
			return q.sketchWin != nil && g.sk.Pushes() == q.sketchWin.Pushes()
		}
		return q.window != nil && g.win.SameContents(q.window)
	}
	create := func() any {
		return &sharedGroup{
			key:   q.prof.Key,
			win:   q.window,
			sk:    q.sketchWin,
			specs: make(map[aggSpec]int),
			cache: make(map[uint64]*sharedEmission),
		}
	}
	state, _ := e.plans.Acquire(q.prof.Key, join, create)
	g := state.(*sharedGroup)
	if g.win != nil {
		q.window = g.win
	}
	if g.sk != nil {
		q.sketchWin = g.sk
	}
	g.members = append(g.members, q)
	for _, oc := range q.outPlan {
		g.specs[aggSpec{oc.agg.colIdx, oc.agg.kind}]++
	}
	g.refreshUniform()
	g.sharers.Store(int32(len(g.members)))
	q.shared = g
}

// detachShared removes q from its group on Unbind. The departing query
// keeps the aliased window (it is no longer driven); survivors keep
// ownership, and the last member's departure releases the group.
func (e *Engine) detachShared(q *Query) {
	g := q.shared
	if g == nil {
		return
	}
	q.shared = nil
	for i, m := range g.members {
		if m == q {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	for _, oc := range q.outPlan {
		spec := aggSpec{oc.agg.colIdx, oc.agg.kind}
		if g.specs[spec]--; g.specs[spec] == 0 {
			delete(g.specs, spec)
		}
	}
	clear(g.cache)
	if len(g.members) == 0 {
		e.plans.Release(g.key, g)
		return
	}
	g.refreshUniform()
	g.sharers.Store(int32(len(g.members)))
}

// refreshUniform recomputes whether fully built emissions may be shared:
// every member runs the identical output plan, and the accuracy backend
// consumes no per-query randomness (analytical and none never touch the
// member RNGs; bootstrap draws from each member's own RNG, whose evolution
// must stay exactly as unshared; sketch emissions are deterministic by
// construction and signature-uniform by key).
func (g *sharedGroup) refreshUniform() {
	if len(g.members) == 0 {
		g.uniform = false
		return
	}
	first := g.members[0]
	if first.method == AccuracyBootstrap {
		g.uniform = false
		return
	}
	for _, m := range g.members[1:] {
		if m.prof.Sig != first.prof.Sig {
			g.uniform = false
			return
		}
	}
	g.uniform = true
}

// sweepShared clears any emission-cache stragglers after a batch. In the
// normal query-major flow every entry is consumed by every member within
// the batch, so this is the enforcement point of the invariant (pinned by
// TestSharedCacheInvalidation) rather than a working path.
func (e *Engine) sweepShared(sd *streamDef) {
	for _, bq := range sd.queries {
		if g := bq.q.shared; g != nil && len(g.cache) != 0 {
			clear(g.cache)
		}
	}
}

// pushShared is the push path of a group member: the first member to reach
// a sequence number computes the group emission, later members replay it.
// Solo groups compute and replay in one step without touching the cache,
// so a query that happens to be alone in its class runs at unshared cost.
func (q *Query) pushShared(t *stream.Tuple) ([]Result, error) {
	g := q.shared
	em, ok := g.cache[t.Seq]
	if !ok {
		em = g.compute(q, t)
		if len(g.members) > 1 {
			em.remaining = len(g.members) - 1
			g.cache[t.Seq] = em
		}
		g.leads.Add(1)
	} else {
		if em.remaining--; em.remaining == 0 {
			delete(g.cache, t.Seq)
		}
		g.follows.Add(1)
	}
	return q.replayShared(em, t)
}

// compute runs the shared pipeline once for tuple t on behalf of the whole
// group. q is the member that reached t first; shareable filters ignore
// the evaluator argument, so evaluating with q's is equivalent for every
// member.
func (g *sharedGroup) compute(q *Query, t *stream.Tuple) *sharedEmission {
	em := &sharedEmission{}
	prob, probN := t.Prob, t.ProbN
	if q.where != nil {
		em.filtered = true
		timed := q.timing.Enabled()
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		o, err := q.where(q.ev, t)
		if timed {
			q.timing.Observe(plan.StageFilter, time.Since(t0))
		}
		if err != nil {
			em.filterErr = err
			return em
		}
		em.outcome = o
		if o.Unsure && q.eng.cfg.DropUnsure {
			return em
		}
		prob *= o.Prob
		probN = combineN(probN, o.N)
		if prob == 0 || prob < q.eng.cfg.MinProb {
			return em
		}
	}
	if g.sk != nil {
		// Sketch groups are signature-uniform by key, so labels (and
		// therefore wrapped errors) are identical across members and the
		// fully built emission is always shared.
		em.res, em.err = q.sketchPush(t, prob, probN)
		return em
	}

	timed := q.timing.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	g.win.Push(t)
	if timed {
		q.timing.Observe(plan.StageWindow, time.Since(t0))
	}
	if !g.win.Full() {
		return em
	}
	em.full = true
	em.count = g.win.Len()

	if timed {
		t0 = time.Now()
	}
	// Every closed-form aggregate any member requests is computed once;
	// Monte Carlo aggregates get one shared column materialization and stay
	// per-member (replayShared).
	em.aggs = make(map[aggSpec]sharedAggVal, len(g.specs))
	var closed []aggSpec
	var cols []int
	var wts []float64
	for spec := range g.specs {
		switch spec.kind {
		case stream.Count:
			em.aggs[spec] = sharedAggVal{field: randvar.Det(float64(em.count))}
		case stream.Avg, stream.Sum:
			if g.win.ColumnGaussian(spec.col) {
				wt := 1.0
				if spec.kind == stream.Avg {
					wt = 1 / float64(em.count)
				}
				closed = append(closed, spec)
				cols = append(cols, spec.col)
				wts = append(wts, wt)
			} else {
				g.materialize(em, spec.col)
			}
		default: // Min, Max: always Monte Carlo, always per-member.
			g.materialize(em, spec.col)
		}
	}
	if len(closed) > 0 {
		mu, sigma2, n := g.win.LinearUniformMoments(cols, wts)
		for j, spec := range closed {
			f, err := randvar.GaussianResult(mu[j], sigma2[j], n[j])
			em.aggs[spec] = sharedAggVal{field: f, err: err}
		}
	}
	if timed {
		q.timing.Observe(plan.StageAggregate, time.Since(t0))
	}
	if g.uniform {
		g.buildSharedResult(q, em, t, prob, probN)
	}
	return em
}

// materialize snapshots one column of the shared window, oldest-first —
// the common input every member's Monte Carlo aggregate consumes with its
// own evaluator.
func (g *sharedGroup) materialize(em *sharedEmission, col int) {
	if em.mat == nil {
		em.mat = make(map[int][]randvar.Field)
	}
	if _, ok := em.mat[col]; ok {
		return
	}
	em.mat[col] = g.win.AppendColumnFields(nil, col)
}

// buildSharedResult assembles the one emission every member of a
// signature-uniform group returns verbatim. It mirrors the unshared
// assembly + decorate exactly, minus per-member telemetry (replayed at
// consumption). Any error or Monte Carlo dependency abandons the shared
// result; members then assemble their own and reproduce the identical
// outcome (including the identical error) from the cached stage outputs.
func (g *sharedGroup) buildSharedResult(q *Query, em *sharedEmission, t *stream.Tuple, prob float64, probN int) {
	fields := make([]randvar.Field, 0, len(q.outPlan))
	for _, oc := range q.outPlan {
		v, ok := em.aggs[aggSpec{oc.agg.colIdx, oc.agg.kind}]
		if !ok || v.err != nil {
			return
		}
		fields = append(fields, v.field)
	}
	sr := &sharedResult{tuple: &stream.Tuple{
		Schema: q.out,
		Fields: fields,
		Prob:   prob,
		ProbN:  probN,
		Seq:    t.Seq,
		Time:   t.Time,
	}}
	cfg := q.eng.cfg
	if q.method != AccuracyNone {
		timed := q.timing.Enabled()
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		for i, f := range fields {
			if !q.out.Columns[i].Probabilistic || f.N < 2 {
				continue
			}
			info, err := accuracy.ForDistribution(f.Dist, f.N, cfg.Level)
			if err != nil {
				return
			}
			if sr.fields == nil {
				sr.fields = make(map[string]*accuracy.Info)
			}
			sr.fields[q.out.Columns[i].Name] = info
			sr.infos = append(sr.infos, info)
		}
		if prob < 1 && probN >= 1 {
			iv, err := accuracy.TupleProbInterval(prob, probN, cfg.Level)
			if err != nil {
				return
			}
			sr.tupleProb = &iv
		}
		if timed {
			q.timing.Observe(plan.StageAccuracy, time.Since(t0))
		}
	}
	em.res = sr
}

// replayShared reproduces one member's view of a cached group emission, in
// the exact order of the unshared pipeline: filter error, UNSURE and
// membership-probability drops (per-member counters), then emission. The
// member either returns the fully shared result (replaying telemetry so
// METRICS snapshots match unshared runs) or assembles its own output from
// the cached stage products, consuming its own evaluator exactly where the
// unshared path would.
func (q *Query) replayShared(em *sharedEmission, t *stream.Tuple) ([]Result, error) {
	if em.filterErr != nil {
		return nil, em.filterErr
	}
	prob, probN := t.Prob, t.ProbN
	unsure := false
	if em.filtered {
		o := em.outcome
		if o.Unsure {
			q.stats.unsure.Add(1)
			if q.eng.cfg.DropUnsure {
				q.stats.dropped.Add(1)
				return nil, nil
			}
			unsure = true
		}
		prob *= o.Prob
		probN = combineN(probN, o.N)
		if prob == 0 || prob < q.eng.cfg.MinProb {
			q.stats.dropped.Add(1)
			return nil, nil
		}
	}
	if q.shared.sk != nil {
		if em.err != nil || em.res == nil {
			return nil, em.err
		}
		return q.emitShared(em.res, unsure), nil
	}
	if !em.full {
		return nil, nil
	}
	if em.res != nil {
		return q.emitShared(em.res, unsure), nil
	}

	timed := q.timing.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	fields := make([]randvar.Field, 0, len(q.outPlan))
	values := q.valuesBuf[:0]
	for _, oc := range q.outPlan {
		spec := aggSpec{oc.agg.colIdx, oc.agg.kind}
		if v, ok := em.aggs[spec]; ok {
			if v.err != nil {
				return nil, fmt.Errorf("core: aggregate %s: %w", oc.agg.label, v.err)
			}
			fields = append(fields, v.field)
			values = append(values, nil)
			continue
		}
		res, err := stream.Aggregate(q.ev, oc.agg.kind, em.mat[spec.col])
		if err != nil {
			return nil, fmt.Errorf("core: aggregate %s: %w", oc.agg.label, err)
		}
		fields = append(fields, res.Field)
		values = append(values, res.Values)
	}
	q.valuesBuf = values
	if timed {
		q.timing.Observe(plan.StageAggregate, time.Since(t0))
	}
	out := &stream.Tuple{
		Schema: q.out,
		Fields: fields,
		Prob:   prob,
		ProbN:  probN,
		Seq:    t.Seq,
		Time:   t.Time,
	}
	if timed {
		t0 = time.Now()
	}
	res, err := q.decorate(out, values, unsure)
	if timed {
		q.timing.Observe(plan.StageAccuracy, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	q.stats.out.Add(1)
	return []Result{res}, nil
}

// emitShared returns a fully built emission as this query's result,
// applying the per-query telemetry and counters — for a group member, so
// that STATS/METRICS snapshots are indistinguishable from an unshared run.
func (q *Query) emitShared(sr *sharedResult, unsure bool) []Result {
	recovering := q.eng.recovering.Load()
	for _, info := range sr.infos {
		q.telem.observeField(info, recovering)
	}
	if sr.tupleProb != nil {
		q.telem.observeTupleProb(*sr.tupleProb, recovering)
	}
	q.stats.out.Add(1)
	return []Result{{Tuple: sr.tuple, Fields: sr.fields, TupleProb: sr.tupleProb, Unsure: unsure}}
}
