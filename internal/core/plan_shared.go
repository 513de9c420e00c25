package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/accuracy"
	"repro/internal/randvar"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// This file is the push pipeline of every aggregate query and the
// multi-query planner: the sharing verdict, the registry of shared groups,
// and the groups themselves. Each aggregate query runs in a plan group that
// owns its window state and runs the per-push pipeline once per ingested
// tuple for all of its members:
//
//   - the filter is evaluated once and its verdict replayed to each member;
//   - the window (ColumnWindow, one per GROUP BY key, or sketch ring) is
//     pushed once;
//   - every closed-form aggregate any member requests is computed once;
//     Monte Carlo aggregates get one compiled column per window column and
//     run per member, on the member's own evaluator;
//   - when every member runs the identical output plan under an accuracy
//     backend that consumes no per-query randomness, the first member's
//     assembled and decorated emission is handed to the others verbatim.
//
// A query the planner may share (planProfileOf) joins a registry group at
// Bind; any other aggregate query — GROUP BY, WINDOW n SECONDS, a filter
// that may draw, or one pushed without Bind — runs in a private group of one
// that the registry never sees. A group of one computes and replays in one
// step, so the pipeline is the same code either way.
//
// Determinism is the design constraint, not a side effect: every shared
// computation is provably identical to what each member would compute alone
// (same float summation order, same RNG non-consumption, same error values),
// so DATA output does not depend on who shares with whom, and survives crash
// recovery. Aggregates that consume the member's Monte Carlo evaluator
// (MIN/MAX, non-Gaussian AVG/SUM) or its bootstrap RNG stay per member,
// keeping each member's RNG evolution — and therefore its checkpoints —
// exactly as if it were alone.
//
// The route (route.go) drives a group through a batch in chunks of up to
// stream.AheadWidth admitted tuples: one closed-form scan answers every
// window the chunk leaves, then per tuple the leader (first member by query
// id) computes the emission and every member replays it before the next
// tuple, so one emission per group is alive at a time, reused throughout.

// planKey identifies one shared-state equivalence class: every query with
// the same key consumes the same stream prefix through the same filter into
// a window of the same shape under the same accuracy backend, so the window
// contents — and everything derived from them without per-query randomness
// — are identical across the class.
type planKey struct {
	// Stream is the canonical (lower-cased) source stream name.
	Stream string
	// Filter is the canonical rendering of the WHERE clause ("" when
	// absent). sql.Expr.String() parenthesizes nested boolean structure,
	// so equal strings imply equal filter semantics.
	Filter string
	// Rows is the count-window size.
	Rows int
	// Backend is the effective accuracy backend the query runs with
	// (engine default or BACKEND override).
	Backend string
	// Sig is the aggregate-plan signature for backends whose window state
	// depends on the aggregate list (the sketch backend tracks one moment
	// sketch per aggregate item); empty for columnar windows, which hold
	// every schema column regardless of which aggregates read them.
	Sig string
}

func (k planKey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream=%s rows=%d backend=%s", k.Stream, k.Rows, k.Backend)
	if k.Filter != "" {
		fmt.Fprintf(&b, " filter=%q", k.Filter)
	}
	if k.Sig != "" {
		fmt.Fprintf(&b, " aggs=%s", k.Sig)
	}
	return b.String()
}

// planProfile is a compiled query's shareability verdict plus the group
// key it would share under.
type planProfile struct {
	// Shareable reports whether the query's window state may join a
	// registry group; Reason says why not, for EXPLAIN.
	Shareable bool
	Reason    string
	Key       planKey
	// Sig is the canonical output-plan signature (label:column:kind per
	// output column): groups whose members all carry the same signature
	// can share fully built emissions, not just window state.
	Sig string
}

// aggSpec identifies one aggregate computation over a group's window.
type aggSpec struct {
	col  int
	kind stream.AggKind
}

// sharedAggVal is one closed-form aggregate computed once per emission;
// err is the raw (unwrapped) error so each member wraps it with its own
// output label.
type sharedAggVal struct {
	field randvar.Field
	err   error
}

// sharedResult is a fully built emission: the output tuple, the
// accuracy-info map and the membership-probability interval.
type sharedResult struct {
	tuple     *stream.Tuple
	fields    map[string]*accuracy.Info
	tupleProb *accuracy.Interval
}

// infosInto appends the emission's accuracy infos to dst in output-column
// order, the order telemetry observes them in.
func (sr *sharedResult) infosInto(dst []*accuracy.Info) []*accuracy.Info {
	if sr.fields == nil {
		return dst
	}
	for _, col := range sr.tuple.Schema.Columns {
		if info := sr.fields[col.Name]; info != nil {
			dst = append(dst, info)
		}
	}
	return dst
}

// result is the emission as one member's Result.
func (sr *sharedResult) result(unsure bool) Result {
	return Result{Tuple: sr.tuple, Fields: sr.fields, TupleProb: sr.tupleProb, Unsure: unsure}
}

// sharedEmission is everything one input tuple produced for the group,
// replayed by each member.
type sharedEmission struct {
	filterErr error
	adm       admission

	// err is the window or sketch push error.
	err error

	// Columnar window stage: emit is set when the window is to be
	// aggregated; mc when some aggregate draws from the compiled columns.
	emit bool
	mc   bool
	aggs map[aggSpec]sharedAggVal
	cols map[int]*randvar.Column

	// res is the fully built emission: for a sketch group, set when the push
	// sealed a full window; for a column group, set by the first member of a
	// uniform group whose assembly consumed no member randomness, pointing
	// at built. infos are res's accuracy infos in column order, and handedOut
	// counts the members res was returned to.
	res       *sharedResult
	built     sharedResult
	infos     []*accuracy.Info
	handedOut uint64
}

// verdict is a tuple's filter outcome, taken before its chunk's windows.
type verdict struct {
	adm admission
	err error
}

// aheadAgg is one Gaussian AVG or SUM over a chunk: lane j after chunk[j].
type aheadAgg struct {
	spec       aggSpec
	mu, sigma2 [stream.AheadWidth]float64
	n          [stream.AheadWidth]int
}

// sharedGroup is one plan group: the window state of its members and the
// emission of the tuple being pushed. Exactly one of win/groups/sk is set.
// Membership mutates only under the engine registration contract; the
// atomics exist because EXPLAIN renders sharers and lead/follow tallies
// without quiescing ingest.
type sharedGroup struct {
	// registered is set while the group is in the planner registry under key;
	// a private group has no key and only ever one member.
	registered bool
	key        planKey

	win    *stream.ColumnWindow
	groups map[float64]*stream.ColumnWindow // per GROUP BY key
	sk     *sketch.Window

	members []*Query
	// specs refcounts every aggregate any member requests, so one pass
	// computes the union.
	specs map[aggSpec]int
	// uniform is set when every member runs the identical output plan
	// under an accuracy backend free of per-query randomness — the
	// precondition for sharing fully built emissions.
	uniform bool
	// em is the emission of the tuple being pushed, reused push after push.
	em sharedEmission
	// The chunk being stepped (route.go): verdicts, admitted tuples, their
	// look-ahead lanes and the scans' time, booked by the first emission.
	verdicts []verdict
	chunk    []*stream.Tuple
	lanes    []aheadAgg
	laneTime time.Duration

	sharers        atomic.Int32
	leads, follows atomic.Uint64
}

// planProfileOf decides at compile time whether the query's window state
// may be shared, and under which key; draws reports whether its compiled
// filter may draw from the query's evaluator. Only ungrouped count-windowed
// aggregates whose filter never draws qualify: their window contents and
// filter verdicts are a pure function of the stream history and the key, so
// sharing them changes no output bit. Scalar and join queries have no plan
// group and are never shareable.
func (q *Query) planProfileOf(draws bool) planProfile {
	var p planProfile
	switch {
	case q.group == nil:
	case q.groupIdx >= 0:
		p.Reason = "GROUP BY windows are per-key"
	case q.stmt.Window.Seconds > 0:
		p.Reason = "time windows are per-query: the shared pipeline slides count windows only"
	case draws:
		p.Reason = "filter may consume per-query randomness"
	default:
		p.Shareable = true
	}
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
	p.Key = planKey{
		Stream:  keyOf(q.in.Name),
		Filter:  filter,
		Rows:    q.stmt.Window.Rows,
		Backend: q.method.String(),
	}
	if q.group.sk != nil {
		// A sketch window tracks one moment column per aggregate item, so
		// only identical aggregate lists can share one.
		p.Key.Sig = p.Sig
	}
	return p
}

// add makes q a member of g.
func (g *sharedGroup) add(q *Query) {
	g.members = append(g.members, q)
	for _, oc := range q.outPlan {
		if oc.passthrough < 0 {
			g.specs[aggSpec{oc.agg.colIdx, oc.agg.kind}]++
		}
	}
	g.refresh()
}

// remove drops q from g's members.
func (g *sharedGroup) remove(q *Query) {
	for i, m := range g.members {
		if m == q {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	for _, oc := range q.outPlan {
		if oc.passthrough >= 0 {
			continue
		}
		spec := aggSpec{oc.agg.colIdx, oc.agg.kind}
		if g.specs[spec]--; g.specs[spec] == 0 {
			delete(g.specs, spec)
		}
	}
	g.refresh()
}

// refresh recomputes the sharer count and whether fully built emissions may
// be shared: every member runs the identical output plan, and the accuracy
// backend consumes no per-query randomness (analytical and none never touch
// the member RNGs; bootstrap draws from each member's own RNG, whose
// evolution must stay exactly as if the member were alone; sketch emissions
// are deterministic by construction and signature-uniform by key).
func (g *sharedGroup) refresh() {
	g.sharers.Store(int32(len(g.members)))
	g.uniform = len(g.members) > 0 && g.members[0].method != AccuracyBootstrap
	for _, m := range g.members {
		if m.prof.Sig != g.members[0].prof.Sig {
			g.uniform = false
		}
	}
}

// attachShared moves q from its private group into its registry group,
// joining an existing one or registering its own. A group admits q only when
// their windows hold the same contents, so queries restored from a
// checkpoint re-merge only once their windows agree, and a key can hold
// several groups for a while. Called from Bind under e.mu and the engine's
// registration contract (Exclusive or single-threaded), so no push is in
// flight.
func (e *Engine) attachShared(q *Query) {
	own := q.group
	if own == nil || own.registered || !q.prof.Shareable {
		return
	}
	k := q.prof.Key
	for _, g := range e.shared[k] {
		if g.sk != nil && g.sk.Pushes() == own.sk.Pushes() || g.sk == nil && g.win.SameContents(own.win) {
			e.sharedHits++
			g.add(q)
			q.group = g
			return
		}
	}
	e.sharedMisses++
	own.registered, own.key = true, k
	e.shared[k] = append(e.shared[k], own)
}

// detachShared removes q from its registry group on Unbind; the last
// member's departure releases the group. The departing query moves to a
// private group, where Push may still drive it: over a copy of the window
// while survivors keep advancing the original, over the window itself
// once no one else holds it.
func (e *Engine) detachShared(q *Query) {
	g := q.group
	if g == nil || !g.registered {
		return
	}
	g.remove(q)
	win, sk := g.win, g.sk
	switch {
	case len(g.members) > 0 && sk != nil:
		sk = sk.Clone()
	case len(g.members) > 0:
		win = win.Clone()
	default:
		if list := slices.DeleteFunc(e.shared[g.key], func(m *sharedGroup) bool { return m == g }); len(list) > 0 {
			e.shared[g.key] = list
		} else {
			delete(e.shared, g.key)
		}
	}
	q.group = newGroup(q, win, nil, sk)
}

// SharedGroups reports the planner registry: the live shared groups, and
// how many Binds joined an existing group (hits) or founded one (misses).
func (e *Engine) SharedGroups() (groups int, hits, misses uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, list := range e.shared {
		groups += len(list)
	}
	return groups, e.sharedHits, e.sharedMisses
}

// newGroup returns a private group of one over the given window state.
func newGroup(q *Query, win *stream.ColumnWindow, groups map[float64]*stream.ColumnWindow, sk *sketch.Window) *sharedGroup {
	g := &sharedGroup{win: win, groups: groups, sk: sk, specs: make(map[aggSpec]int)}
	g.add(q)
	return g
}

// reset empties a reused emission, keeping its maps, compiled columns and
// info buffer.
func (em *sharedEmission) reset() {
	clear(em.aggs)
	for _, c := range em.cols {
		c.Reset()
	}
	*em = sharedEmission{aggs: em.aggs, cols: em.cols, infos: em.infos[:0]}
}

// lookAhead fills g.lanes, one LinearUniformAhead scan per AVG or SUM over
// the windows a chunk of two or more leaves, once it fills the window (a
// count window emits only then). A column the kernel declines, or a chunk
// of one, gets no lanes: compute scans those windows tuple by tuple.
func (g *sharedGroup) lookAhead(q *Query) {
	rows := q.stmt.Window.Rows
	if len(g.chunk) < 2 || g.win.Len()+len(g.chunk) < rows {
		return
	}
	timed := q.timing.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	for spec := range g.specs {
		wt := 1.0
		switch spec.kind {
		case stream.Avg:
			wt = 1 / float64(rows)
		case stream.Sum:
		default:
			continue
		}
		a := aheadAgg{spec: spec}
		var ok bool
		if a.mu, a.sigma2, a.n, ok = g.win.LinearUniformAhead(spec.col, wt, g.chunk); ok {
			g.lanes = append(g.lanes, a)
		}
	}
	if timed {
		g.laneTime = time.Since(t0)
	}
}

// compute runs the window and aggregate stages for t, the chunk's lane-th
// admitted tuple, into em, which holds t's verdict. q is the leader.
func (g *sharedGroup) compute(q *Query, t *stream.Tuple, em *sharedEmission, lane int) {
	if g.sk != nil {
		// Sketch groups are signature-uniform by key, so labels (and
		// therefore wrapped errors) are identical across members and the
		// fully built emission is always shared.
		em.res, em.err = q.sketchPush(t, em.adm.prob, em.adm.probN)
		if em.res != nil {
			em.infos = em.res.infosInto(em.infos)
		}
		return
	}

	timed := q.timing.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	win, err := g.windowFor(q, t)
	if err == nil {
		// A count window emits once it is full, a span window on every
		// arrival.
		em.emit, err = win.Admit(t)
	}
	em.err = err
	if timed {
		q.timing.Observe(stageWindow, time.Since(t0))
	}
	if !em.emit {
		return
	}

	if timed {
		t0 = time.Now()
	}
	if em.aggs == nil {
		em.aggs = make(map[aggSpec]sharedAggVal, len(g.specs))
	}
	for _, a := range g.lanes {
		f, err := randvar.GaussianResult(a.mu[lane], a.sigma2[lane], a.n[lane])
		em.aggs[a.spec] = sharedAggVal{field: f, err: err}
	}
	count := win.Len()
	for spec := range g.specs {
		if _, done := em.aggs[spec]; done {
			continue
		}
		switch spec.kind {
		case stream.Count:
			em.aggs[spec] = sharedAggVal{field: randvar.Det(float64(count))}
			continue
		case stream.Avg, stream.Sum:
			if win.ColumnGaussian(spec.col) {
				wt := 1.0
				if spec.kind == stream.Avg {
					wt = 1 / float64(count)
				}
				f, err := win.LinearUniform(spec.col, wt)
				em.aggs[spec] = sharedAggVal{field: f, err: err}
				continue
			}
		}
		// Min, Max and non-Gaussian Avg/Sum: Monte Carlo, per member.
		em.compile(win, spec.col)
	}
	if timed {
		q.timing.Observe(stageAggregate, time.Since(t0)+g.laneTime)
		g.laneTime = 0
	}
}

// windowFor returns the window t belongs to, creating per-key windows on
// demand.
func (g *sharedGroup) windowFor(q *Query, t *stream.Tuple) (*stream.ColumnWindow, error) {
	if g.groups == nil {
		return g.win, nil
	}
	key := t.Fields[q.groupIdx].Dist.Mean()
	if math.IsNaN(key) {
		// NaN never equals itself: as a map key every such tuple would miss
		// g.groups and allocate a window nothing can reach again.
		return nil, fmt.Errorf("core: GROUP BY key %s is NaN", q.in.Columns[q.groupIdx].Name)
	}
	w, ok := g.groups[key]
	if !ok {
		var err error
		if w, err = q.newWindow(); err != nil {
			return nil, err
		}
		g.groups[key] = w
	}
	return w, nil
}

// compile compiles one column of the window, oldest-first, once per
// emission — the common input every member's Monte Carlo aggregate draws
// from with its own evaluator.
func (em *sharedEmission) compile(win *stream.ColumnWindow, col int) {
	if em.cols == nil {
		em.cols = make(map[int]*randvar.Column)
	}
	c := em.cols[col]
	if c == nil {
		c = new(randvar.Column)
		em.cols[col] = c
	}
	if c.Len() == 0 {
		win.CompileColumn(c, col)
	}
	em.mc = true
}

// replay reproduces one member's view of a group emission, in pipeline
// order: filter error, UNSURE and membership-probability drops (per-member
// counters), window error, then emission. The member returns the fully built
// emission when there is one, and otherwise assembles and decorates its own
// from the group's stage products, consuming its own evaluator where a Monte
// Carlo aggregate needs it; the first member of a uniform group hands what
// it built on. ok reports whether the member emitted a result.
func (q *Query) replay(em *sharedEmission, t *stream.Tuple) (res Result, ok bool, err error) {
	if em.filterErr != nil {
		return res, false, em.filterErr
	}
	if !q.admit(em.adm) {
		return res, false, nil
	}
	if em.err != nil {
		return res, false, em.err
	}
	if em.res != nil {
		return q.emitHanded(em), true, nil
	}
	if !em.emit {
		return res, false, nil
	}

	timed := q.timing.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	fields := make([]randvar.Field, 0, len(q.outPlan))
	values := q.valuesBuf[:0]
	for _, oc := range q.outPlan {
		if oc.passthrough >= 0 {
			fields = append(fields, t.Fields[oc.passthrough])
			values = append(values, nil)
			continue
		}
		spec := aggSpec{oc.agg.colIdx, oc.agg.kind}
		if v, ok := em.aggs[spec]; ok {
			if v.err != nil {
				return res, false, fmt.Errorf("core: aggregate %s: %w", oc.agg.label, v.err)
			}
			fields = append(fields, v.field)
			values = append(values, nil)
			continue
		}
		r, err := stream.AggregateCompiled(q.ev, oc.agg.kind, em.cols[spec.col])
		if err != nil {
			return res, false, fmt.Errorf("core: aggregate %s: %w", oc.agg.label, err)
		}
		fields = append(fields, r.Field)
		values = append(values, r.Values)
	}
	q.valuesBuf = values
	if timed {
		q.timing.Observe(stageAggregate, time.Since(t0))
		t0 = time.Now()
	}
	sr, err := q.decorate(&stream.Tuple{
		Schema: q.out,
		Fields: fields,
		Prob:   em.adm.prob,
		ProbN:  em.adm.probN,
		Seq:    t.Seq,
		Time:   t.Time,
	}, values)
	if timed {
		q.timing.Observe(stageAccuracy, time.Since(t0))
	}
	if err != nil {
		return res, false, err
	}
	if g := q.group; g.uniform && !em.mc && len(g.members) > 1 {
		em.built = sr
		em.res = &em.built
		em.infos = sr.infosInto(em.infos)
		return q.emitHanded(em), true, nil
	}
	return q.emitOwn(&sr, em.adm.unsure), true, nil
}

// emitHanded returns the group's fully built emission as this member's
// result. The member's own counters and telemetry rings move as if it had
// built the emission alone; the process-global instruments are the group's,
// fed once per emission (observeEmission).
func (q *Query) emitHanded(em *sharedEmission) Result {
	em.handedOut++
	q.telem.observe(em.infos, em.res.tupleProb)
	q.stats.out.Add(1)
	return em.res.result(em.adm.unsure)
}

// emitOwn returns an emission this query built for itself alone.
func (q *Query) emitOwn(sr *sharedResult, unsure bool) Result {
	q.infosBuf = sr.infosInto(q.infosBuf[:0])
	q.telem.observe(q.infosBuf, sr.tupleProb)
	if !q.eng.recovering.Load() {
		observeEmission(q.infosBuf, sr.tupleProb, 1)
	}
	q.stats.out.Add(1)
	return sr.result(unsure)
}
