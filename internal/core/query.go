package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/accuracy"
	"repro/internal/bootstrap"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/sketch"
	"repro/internal/sql"
	"repro/internal/stream"
)

// Result is one output tuple of a continuous query, decorated with the
// accuracy information the paper proposes (§II-B): per-field confidence
// intervals (mean, variance, bin heights) and an interval for the tuple's
// membership probability.
type Result struct {
	// Tuple is the output tuple (fields carry distributions and d.f.
	// sample sizes).
	Tuple *stream.Tuple
	// Fields maps output column names to their accuracy information;
	// entries exist only for probabilistic fields with a known sample
	// size and only when the engine's accuracy method is not None.
	Fields map[string]*accuracy.Info
	// TupleProb is the confidence interval of the tuple's membership
	// probability (nil when the probability is exact).
	TupleProb *accuracy.Interval
	// Unsure is set when a coupled significance predicate answered
	// UNSURE and the engine is configured to keep such tuples.
	Unsure bool
}

// QueryStats counts a query's activity.
type QueryStats struct {
	In      uint64 // tuples pushed
	Out     uint64 // results emitted
	Dropped uint64 // tuples eliminated by WHERE
	Unsure  uint64 // tuples whose significance predicate was UNSURE
	Joined  uint64 // join matches produced (join queries only)
	Shed    uint64 // accuracy computations run with a reduced resample budget
}

// queryCounters is the live, atomically updated form of QueryStats: pushes
// run under per-shard locks while STATS/METRICS snapshots may race from
// other connections, so the counters must be safe to read concurrently.
type queryCounters struct {
	in      atomic.Uint64
	out     atomic.Uint64
	dropped atomic.Uint64
	unsure  atomic.Uint64
	joined  atomic.Uint64
	shed    atomic.Uint64
}

func (c *queryCounters) snapshot() QueryStats {
	return QueryStats{
		In:      c.in.Load(),
		Out:     c.out.Load(),
		Dropped: c.dropped.Load(),
		Unsure:  c.unsure.Load(),
		Joined:  c.joined.Load(),
		Shed:    c.shed.Load(),
	}
}

func (c *queryCounters) restore(s QueryStats) {
	c.in.Store(s.In)
	c.out.Store(s.Out)
	c.dropped.Store(s.Dropped)
	c.unsure.Store(s.Unsure)
	c.joined.Store(s.Joined)
	c.shed.Store(s.Shed)
}

// queryMode distinguishes the execution strategies.
type queryMode int

const (
	modeScalar queryMode = iota
	modeAggregate
)

// scalarItem is one output column of a scalar query.
type scalarItem struct {
	label string
	// passthrough ≥ 0 selects an input column unchanged; otherwise expr
	// is evaluated.
	passthrough int
	expr        *compiledExpr
}

// aggItem is one output column of an aggregate query.
type aggItem struct {
	label  string
	kind   stream.AggKind
	colIdx int
}

// aggOutCol is one output column of an aggregate query in out-schema order:
// either a passthrough of the GROUP BY key (passthrough >= 0) or an
// aggregate item.
type aggOutCol struct {
	passthrough int
	agg         aggItem
}

// joinState executes a symmetric window equi-join: each side retains a
// count-rule column window; an arriving tuple probes the opposite window
// for equal (deterministic) keys and emits one combined tuple per match,
// with membership probabilities multiplied under the possible-world
// independence assumption.
type joinState struct {
	leftName, rightName string
	leftSchema          *stream.Schema
	rightSchema         *stream.Schema
	leftKey, rightKey   int
	leftWin, rightWin   *stream.ColumnWindow
	combined            *stream.Schema // columns "<stream>.<col>"
}

// Query is a compiled continuous query. Push tuples in; Results come out.
// A Query is not safe for concurrent use.
type Query struct {
	eng   *Engine
	stmt  *sql.SelectStmt
	in    *stream.Schema // combined schema for joins
	out   *stream.Schema
	where compiledPred
	ev    *randvar.Evaluator
	rng   *dist.Rand // bootstrap accuracy sampling

	// method is the accuracy backend this query runs with: the engine
	// default, or the statement's BACKEND override.
	method AccuracyMethod

	mode    queryMode
	scalars []scalarItem
	aggs    []aggItem
	// outPlan maps each aggregate-output column to its source, resolved
	// once at plan time so the push path does no per-push label lookups.
	outPlan []aggOutCol

	// Per-push scratch reused across pushes (a Query is single-goroutine
	// by contract); holds only references consumed within the push.
	valuesBuf [][]float64
	sketchObs []sketch.Obs
	infosBuf  []*accuracy.Info

	groupIdx int // index of the GROUP BY column, -1 when absent

	join *joinState

	// group runs an aggregate query's push pipeline and owns its window
	// state (plan_shared.go): a registry group shared with other bound
	// queries, or a private group of one. Nil for scalar queries.
	group *sharedGroup
	// bound is set while the query is bound to its engine, which then
	// drives it through IngestBatch alone.
	bound bool

	// prof is the compile-time shareability profile; timing collects
	// per-stage wall time once EXPLAIN … TIMING enables it.
	prof   planProfile
	timing stageTimer

	stats queryCounters
	telem queryTelemetry
}

// Compile parses and plans a SQL statement against the engine's registered
// streams.
func (e *Engine) Compile(query string) (*Query, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.CompileStmt(stmt)
}

// CompileStmt plans an already-parsed statement.
func (e *Engine) CompileStmt(stmt *sql.SelectStmt) (*Query, error) {
	if stmt == nil {
		return nil, errors.New("core: nil statement")
	}
	q := &Query{
		eng:      e,
		stmt:     stmt,
		rng:      dist.NewRand(e.cfg.Seed ^ 0xabcdef123456789),
		groupIdx: -1,
		method:   e.cfg.Method,
	}
	switch stmt.Backend {
	case "":
	case "ANALYTICAL":
		q.method = AccuracyAnalytical
	case "BOOTSTRAP":
		q.method = AccuracyBootstrap
	case "SKETCH":
		q.method = AccuracySketch
	default:
		return nil, fmt.Errorf("core: unknown accuracy backend %q", stmt.Backend)
	}
	if stmt.Join != nil {
		if err := q.planJoin(); err != nil {
			return nil, err
		}
	} else {
		in, err := e.Schema(stmt.From)
		if err != nil {
			return nil, err
		}
		q.in = in
	}
	var draws bool
	if stmt.Where != nil {
		var err error
		q.where, draws, err = compilePredicate(q.in, stmt.Where, e.cfg)
		if err != nil {
			return nil, err
		}
	}
	if err := q.planSelect(); err != nil {
		return nil, err
	}
	if q.method == AccuracySketch && (q.group == nil || q.group.sk == nil) {
		return nil, errors.New("core: BACKEND SKETCH requires an ungrouped count-windowed aggregate query")
	}
	q.prof = q.planProfileOf(draws)
	// The evaluator is created last so a failed compile consumes no engine
	// sequence number: WAL replay re-runs only the successful statements,
	// and seq (hence every evaluator seed) must evolve identically.
	q.ev = e.newEvaluator()
	if !e.recovering.Load() {
		mCompiled.Inc()
	}
	return q, nil
}

// planJoin resolves both sides and builds the combined qualified schema.
func (q *Query) planJoin() error {
	stmt := q.stmt
	left, err := q.eng.Schema(stmt.From)
	if err != nil {
		return err
	}
	right, err := q.eng.Schema(stmt.Join.Right)
	if err != nil {
		return err
	}
	if strings.EqualFold(left.Name, right.Name) {
		return errors.New("core: self-joins are not supported")
	}
	if stmt.GroupBy != "" {
		return errors.New("core: GROUP BY over a join is not supported")
	}
	lk, err := resolveKey(left, stmt.Join.LeftKey)
	if err != nil {
		return err
	}
	rk, err := resolveKey(right, stmt.Join.RightKey)
	if err != nil {
		return err
	}
	if left.Columns[lk].Probabilistic || right.Columns[rk].Probabilistic {
		return errors.New("core: join keys must be deterministic columns")
	}
	if stmt.Window == nil {
		// Normalize the implicit default into the statement so the
		// effective window survives round trips: EXPLAIN, statement
		// printing, checkpointed SQL, and replicated registrations all
		// show WINDOW n ROWS explicitly instead of an invisible fallback.
		stmt.Window = &sql.WindowSpec{Rows: sql.DefaultJoinWindowRows}
	}
	if stmt.Window.Seconds > 0 {
		return errors.New("core: time-windowed joins are not supported; use WINDOW n ROWS")
	}
	lw, err := stream.NewColumnWindow(left, stmt.Window.Rows)
	if err != nil {
		return err
	}
	rw, err := stream.NewColumnWindow(right, stmt.Window.Rows)
	if err != nil {
		return err
	}
	cols := make([]stream.Column, 0, left.Arity()+right.Arity())
	for _, c := range left.Columns {
		cols = append(cols, stream.Column{Name: left.Name + "." + c.Name, Probabilistic: c.Probabilistic})
	}
	for _, c := range right.Columns {
		cols = append(cols, stream.Column{Name: right.Name + "." + c.Name, Probabilistic: c.Probabilistic})
	}
	combined, err := stream.NewSchema(left.Name+"_join_"+right.Name, cols...)
	if err != nil {
		return err
	}
	q.join = &joinState{
		leftName:    strings.ToLower(left.Name),
		rightName:   strings.ToLower(right.Name),
		leftSchema:  left,
		rightSchema: right,
		leftKey:     lk,
		rightKey:    rk,
		leftWin:     lw,
		rightWin:    rw,
		combined:    combined,
	}
	q.in = combined
	return nil
}

// resolveKey resolves a join key column that may be qualified with the
// stream name ("a.k") or bare ("k") against one side's schema.
func resolveKey(schema *stream.Schema, key string) (int, error) {
	name := key
	prefix := strings.ToLower(schema.Name) + "."
	if strings.HasPrefix(strings.ToLower(key), prefix) {
		name = key[len(prefix):]
	}
	idx, ok := schema.Index(name)
	if !ok {
		return 0, fmt.Errorf("core: join key %q not in stream %q", key, schema.Name)
	}
	return idx, nil
}

// planSelect classifies the select list and builds the output schema.
func (q *Query) planSelect() error {
	stmt := q.stmt
	// SELECT * — passthrough of every column.
	if len(stmt.Items) == 1 {
		if _, ok := stmt.Items[0].Expr.(*sql.Star); ok {
			if stmt.Window != nil && q.join == nil {
				return errors.New("core: SELECT * cannot be combined with WINDOW")
			}
			if stmt.GroupBy != "" {
				return errors.New("core: SELECT * cannot be combined with GROUP BY")
			}
			q.mode = modeScalar
			for i, col := range q.in.Columns {
				q.scalars = append(q.scalars, scalarItem{label: col.Name, passthrough: i})
			}
			q.out = q.in
			return nil
		}
	}
	nAgg := 0
	for _, it := range stmt.Items {
		if call, ok := it.Expr.(*sql.CallExpr); ok && isAggregate(call.Func) {
			nAgg++
		}
		if _, ok := it.Expr.(*sql.Star); ok {
			return errors.New("core: '*' must be the only select item")
		}
	}
	if nAgg > 0 {
		return q.planAggregates()
	}
	// Scalar projection.
	if stmt.Window != nil && q.join == nil {
		return errors.New("core: WINDOW requires aggregate select items")
	}
	if stmt.GroupBy != "" {
		return errors.New("core: GROUP BY requires aggregate select items")
	}
	q.mode = modeScalar
	cols := make([]stream.Column, 0, len(stmt.Items))
	for i, it := range stmt.Items {
		label := defaultLabel(it, i)
		if call, ok := it.Expr.(*sql.CallExpr); ok && isPredicateFunc(call.Func) {
			return fmt.Errorf("core: %s is only allowed in WHERE", call.Func)
		}
		if col, ok := it.Expr.(*sql.ColumnRef); ok {
			idx, okc := q.in.Index(col.Name)
			if !okc {
				return fmt.Errorf("core: unknown column %q", col.Name)
			}
			q.scalars = append(q.scalars, scalarItem{label: label, passthrough: idx})
			cols = append(cols, stream.Column{Name: label, Probabilistic: q.in.Columns[idx].Probabilistic})
			continue
		}
		ce, err := compileScalarExpr(q.in, it.Expr)
		if err != nil {
			return err
		}
		q.scalars = append(q.scalars, scalarItem{label: label, passthrough: -1, expr: ce})
		cols = append(cols, stream.Column{Name: label, Probabilistic: ce.probCol})
	}
	out, err := stream.NewSchema(q.in.Name+"_out", cols...)
	if err != nil {
		return err
	}
	q.out = out
	return nil
}

// planAggregates plans aggregate queries: plain, grouped, count- or
// time-windowed.
func (q *Query) planAggregates() error {
	stmt := q.stmt
	if q.join != nil {
		return errors.New("core: aggregates over a join are not supported")
	}
	if stmt.Window == nil {
		return errors.New("core: aggregates require a WINDOW clause")
	}
	q.mode = modeAggregate
	var cols []stream.Column

	// Non-aggregate select items are only legal when they name the GROUP
	// BY column.
	for i, it := range stmt.Items {
		call, isCall := it.Expr.(*sql.CallExpr)
		if isCall && isAggregate(call.Func) {
			kind, err := stream.ParseAggKind(call.Func)
			if err != nil {
				return err
			}
			if len(call.Args) != 1 {
				return fmt.Errorf("core: %s takes 1 argument, got %d", call.Func, len(call.Args))
			}
			idx, err := columnArg(q.in, call.Args[0], call.Func+" argument")
			if err != nil {
				return err
			}
			label := defaultLabel(it, i)
			q.aggs = append(q.aggs, aggItem{label: label, kind: kind, colIdx: idx})
			cols = append(cols, stream.Column{Name: label, Probabilistic: kind != stream.Count})
			continue
		}
		col, isCol := it.Expr.(*sql.ColumnRef)
		if !isCol || stmt.GroupBy == "" || !strings.EqualFold(col.Name, stmt.GroupBy) {
			return errors.New("core: cannot mix aggregates and scalar expressions without GROUP BY on that column")
		}
		idx, ok := q.in.Index(col.Name)
		if !ok {
			return fmt.Errorf("core: unknown column %q", col.Name)
		}
		label := defaultLabel(it, i)
		// Recorded as a passthrough of the group key.
		q.scalars = append(q.scalars, scalarItem{label: label, passthrough: idx})
		cols = append(cols, stream.Column{Name: label, Probabilistic: q.in.Columns[idx].Probabilistic})
	}

	var (
		win    *stream.ColumnWindow
		groups map[float64]*stream.ColumnWindow
		sk     *sketch.Window
	)
	if q.method == AccuracySketch {
		switch {
		case stmt.GroupBy != "":
			return errors.New("core: BACKEND SKETCH does not support GROUP BY")
		case stmt.Window.Seconds > 0:
			return errors.New("core: BACKEND SKETCH requires a count window (WINDOW n ROWS)")
		}
		// Validate the aggregate set at plan time, fail-closed: a sketch
		// query whose aggregates the emission path cannot serve must be
		// rejected at REGISTER — before the statement is WAL-journaled —
		// never at first emission, where replay and replicas would re-hit
		// the same runtime error.
		for _, a := range q.aggs {
			switch a.kind {
			case stream.Avg, stream.Sum, stream.Count, stream.Min, stream.Max:
			default:
				return fmt.Errorf("core: BACKEND SKETCH does not support aggregate %v (supported: AVG, SUM, COUNT, MIN, MAX)", a.kind)
			}
		}
		var err error
		if sk, err = sketch.NewWindow(stmt.Window.Rows, q.eng.cfg.SketchBlocks, q.eng.cfg.SketchK, len(q.aggs)); err != nil {
			return err
		}
	}
	if stmt.GroupBy != "" {
		idx, ok := q.in.Index(stmt.GroupBy)
		if !ok {
			return fmt.Errorf("core: unknown GROUP BY column %q", stmt.GroupBy)
		}
		if q.in.Columns[idx].Probabilistic {
			return fmt.Errorf("core: GROUP BY column %q must be deterministic", stmt.GroupBy)
		}
		q.groupIdx = idx
		groups = make(map[float64]*stream.ColumnWindow)
	} else if sk == nil {
		if len(q.scalars) > 0 {
			return errors.New("core: scalar select items require GROUP BY")
		}
		var err error
		if win, err = q.newWindow(); err != nil {
			return err
		}
	}
	out, err := stream.NewSchema(q.in.Name+"_agg", cols...)
	if err != nil {
		return err
	}
	q.out = out
	// Resolve each output column to its source now, replacing the label
	// maps the push path used to rebuild on every tuple.
	aggByLabel := make(map[string]aggItem, len(q.aggs))
	for _, a := range q.aggs {
		aggByLabel[a.label] = a
	}
	scalarByLabel := make(map[string]scalarItem, len(q.scalars))
	for _, s := range q.scalars {
		scalarByLabel[s.label] = s
	}
	q.outPlan = make([]aggOutCol, 0, len(q.out.Columns))
	for _, col := range q.out.Columns {
		if item, ok := scalarByLabel[col.Name]; ok {
			q.outPlan = append(q.outPlan, aggOutCol{passthrough: item.passthrough})
			continue
		}
		q.outPlan = append(q.outPlan, aggOutCol{passthrough: -1, agg: aggByLabel[col.Name]})
	}
	q.group = newGroup(q, win, groups, sk)
	return nil
}

// OutSchema returns the schema of emitted results.
func (q *Query) OutSchema() *stream.Schema { return q.out }

// Stats returns a snapshot of the query's counters. Safe to call
// concurrently with Push.
func (q *Query) Stats() QueryStats { return q.stats.snapshot() }

// String renders the compiled statement.
func (q *Query) String() string { return q.stmt.String() }

// Push feeds one tuple through an unbound query, returning zero or more
// results. For join queries the tuple may belong to either input stream. A
// bound query takes tuples only through IngestBatch: the queries sharing its
// plan group must all see the same tuple sequence.
func (q *Query) Push(t *stream.Tuple) ([]Result, error) {
	if q.bound {
		return nil, errors.New("core: query is bound to the engine; ingest through IngestBatch")
	}
	return q.push(t)
}

func (q *Query) push(t *stream.Tuple) ([]Result, error) {
	if t == nil {
		return nil, errors.New("core: nil tuple")
	}
	// WAL replay must not pollute steady-state latency/throughput metrics:
	// replayed pushes count toward the segregated recovery counter only,
	// so a recovered process's snapshot matches a freshly booted one.
	recovering := q.eng.recovering.Load()
	matches := q.join == nil && strings.EqualFold(t.Schema.Name, q.in.Name) && t.Schema.Arity() == q.in.Arity()
	if q.group != nil && matches {
		// An aggregate query pushes through its plan group, a group of one
		// when unbound, which keeps the clock and counters itself.
		out := [1]QueryResults{}
		b := batchOut{out: out[:]}
		q.group.step([]routeSlot{{q: q}}, []*stream.Tuple{t}, &b, recovering)
		if len(b.errs) > 0 {
			return nil, b.errs[0][0]
		}
		return out[0].Results, nil
	}
	var t0 time.Time
	if recovering {
		mRecoveryPushes.Inc()
	} else {
		t0 = time.Now()
		mPushes.Inc()
	}
	q.stats.in.Add(1)
	var (
		out []Result
		err error
	)
	switch {
	case q.join != nil:
		out, err = q.pushJoin(t)
	case !matches:
		err = fmt.Errorf("core: tuple of stream %q pushed into query over %q",
			t.Schema.Name, q.in.Name)
	default:
		out, err = q.pushScalar(t)
	}
	if !recovering {
		hPush.ObserveSince(t0)
		if err == nil {
			mResults.Add(uint64(len(out)))
		}
	}
	return out, err
}

// admission is one tuple's WHERE verdict under possible-world semantics:
// the membership probability and its d.f. size after the filter, whether a
// significance test answered UNSURE, and whether the tuple is dropped.
type admission struct {
	prob   float64
	probN  int
	unsure bool
	drop   bool
}

// filter evaluates the WHERE clause for t.
func (q *Query) filter(t *stream.Tuple) (admission, error) {
	a := admission{prob: t.Prob, probN: t.ProbN}
	if q.where == nil {
		return a, nil
	}
	timed := q.timing.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	o, err := q.where(q.ev, t)
	if timed {
		q.timing.Observe(stageFilter, time.Since(t0))
	}
	if err != nil {
		return a, err
	}
	cfg := q.eng.cfg
	a.unsure = o.Unsure
	if o.Unsure && cfg.DropUnsure {
		a.drop = true
		return a, nil
	}
	a.prob *= o.Prob
	a.probN = combineN(a.probN, o.N)
	a.drop = a.prob == 0 || a.prob < cfg.MinProb
	return a, nil
}

// admit counts a WHERE verdict against the query and reports whether the
// tuple goes on.
func (q *Query) admit(a admission) bool {
	if a.unsure {
		q.stats.unsure.Add(1)
	}
	if a.drop {
		q.stats.dropped.Add(1)
	}
	return !a.drop
}

// pushJoin inserts the tuple into its side's window, probes the other
// side, and runs every combined match through the filter/select pipeline.
func (q *Query) pushJoin(t *stream.Tuple) ([]Result, error) {
	js := q.join
	var (
		myKey, otherKey int
		otherWin        *stream.ColumnWindow
		pre, post       []randvar.Field // t's fields, before or after a match's
	)
	switch strings.ToLower(t.Schema.Name) {
	case js.leftName:
		js.leftWin.Push(t)
		myKey, otherKey = js.leftKey, js.rightKey
		otherWin = js.rightWin
		pre = t.Fields
	case js.rightName:
		js.rightWin.Push(t)
		myKey, otherKey = js.rightKey, js.leftKey
		otherWin = js.leftWin
		post = t.Fields
	default:
		return nil, fmt.Errorf("core: tuple of stream %q pushed into join over %q and %q",
			t.Schema.Name, js.leftSchema.Name, js.rightSchema.Name)
	}
	var out []Result
	err := otherWin.Probe(otherKey, t.Fields[myKey].Dist.Mean(), pre, post, func(m *stream.Tuple) error {
		m.Schema = js.combined
		m.Prob *= t.Prob
		m.ProbN = combineN(m.ProbN, t.ProbN)
		m.Seq = t.Seq
		m.Time = max(m.Time, t.Time)
		q.stats.joined.Add(1)
		results, err := q.pushScalar(m)
		out = append(out, results...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (q *Query) pushScalar(t *stream.Tuple) ([]Result, error) {
	adm, err := q.filter(t)
	if err != nil || !q.admit(adm) {
		return nil, err
	}
	fields := make([]randvar.Field, len(q.scalars))
	// The value-sequence container is consumed by decorate within this
	// push, so it reuses a Query-owned buffer.
	values := q.valuesBuf
	if cap(values) < len(q.scalars) {
		values = make([][]float64, len(q.scalars))
	} else {
		values = values[:len(q.scalars)]
		for i := range values {
			values[i] = nil
		}
	}
	q.valuesBuf = values
	for i, item := range q.scalars {
		if item.passthrough >= 0 {
			fields[i] = t.Fields[item.passthrough]
			continue
		}
		res, err := item.expr.eval(q.ev, t)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s: %w", item.label, err)
		}
		fields[i] = res.Field
		values[i] = res.Values
	}
	sr, err := q.decorate(&stream.Tuple{
		Schema: q.out,
		Fields: fields,
		Prob:   adm.prob,
		ProbN:  adm.probN,
		Seq:    t.Seq,
		Time:   t.Time,
	}, values)
	if err != nil {
		return nil, err
	}
	return []Result{q.emitOwn(&sr, adm.unsure)}, nil
}

// newWindow builds an aggregate window with the eviction rule of the
// statement's WINDOW clause.
func (q *Query) newWindow() (*stream.ColumnWindow, error) {
	if span := q.stmt.Window.Seconds; span > 0 {
		return stream.NewSpanColumnWindow(q.in, span)
	}
	return stream.NewColumnWindow(q.in, q.stmt.Window.Rows)
}

// sketchPush feeds the tuple's per-column (mean, variance, N) observations
// to the blocked window of the query's plan group and, when that seals a
// full window's block, builds the one emission whose fields come from the
// merged sketches; otherwise it returns nil. The path consumes no RNG, so it
// is deterministic across WAL replays and replicas
// by construction. Counters and telemetry are the caller's (emitHanded),
// once per query the emission is handed to.
//
// Semantics vs the exact backends, documented in DESIGN.md §13: AVG and SUM
// reproduce the Gaussian closed form over the per-tuple means and variances
// (equal to the analytical backend up to float summation order); COUNT is
// the exact window row count; MIN and MAX are the exact extremes of the
// per-tuple means (value-based, not distribution-based — no Monte Carlo);
// results are emitted once per sealed block rather than once per push.
func (q *Query) sketchPush(t *stream.Tuple, prob float64, probN int) (*sharedResult, error) {
	obs := q.sketchObs[:0]
	for _, a := range q.aggs {
		f := t.Fields[a.colIdx]
		obs = append(obs, sketch.Obs{Mean: f.Dist.Mean(), Variance: f.Dist.Variance(), N: f.N})
	}
	q.sketchObs = obs
	sk := q.group.sk
	sealed, err := sk.Push(obs, prob)
	if err != nil {
		return nil, err
	}
	if !sealed || !sk.Full() {
		return nil, nil
	}
	m := sk.Rows()
	sr := &sharedResult{}
	fields := make([]randvar.Field, 0, len(q.aggs))
	for i, a := range q.aggs {
		s, err := sk.MergedCol(i)
		if err != nil {
			return nil, fmt.Errorf("core: sketch aggregate %s: %w", a.label, err)
		}
		var f randvar.Field
		var info *accuracy.Info
		switch a.kind {
		case stream.Count:
			f = randvar.Det(float64(m))
		case stream.Min:
			f = randvar.Det(s.Quant.Min)
		case stream.Max:
			f = randvar.Det(s.Quant.Max)
		case stream.Avg, stream.Sum:
			w := 1.0
			mu := s.Mom.Sum()
			if a.kind == stream.Avg {
				w = 1 / float64(m)
				mu = s.Mom.Mean
			}
			f, err = randvar.GaussianResult(mu, s.SumVar*w*w, s.MinN)
			if err != nil {
				return nil, fmt.Errorf("core: sketch aggregate %s: %w", a.label, err)
			}
			if s.MinN >= 2 {
				info, err = q.sketchInfo(&s, f.Dist, w, m)
				if err != nil {
					return nil, fmt.Errorf("core: sketch accuracy %s: %w", a.label, err)
				}
			}
		default:
			return nil, fmt.Errorf("core: sketch aggregate %v not supported", a.kind)
		}
		fields = append(fields, f)
		if info != nil {
			if sr.fields == nil {
				sr.fields = make(map[string]*accuracy.Info)
			}
			sr.fields[a.label] = info
		}
	}
	sr.tuple = &stream.Tuple{
		Schema: q.out,
		Fields: fields,
		Prob:   prob,
		ProbN:  probN,
		Seq:    t.Seq,
		Time:   t.Time,
	}
	if prob < 1 && probN >= 1 {
		iv, err := accuracy.TupleProbInterval(prob, probN, q.eng.cfg.Level)
		if err != nil {
			return nil, err
		}
		sr.tupleProb = &iv
	}
	return sr, nil
}

// sketchInfo derives one AVG/SUM field's accuracy information from its
// merged column summary: the Theorem 1 analytical intervals on the sketch's
// Gaussian result, with the mean interval widened by the membership
// uncertainty the McGregor–Muthukrishnan moments track (Σp(1−p)x̄² — zero
// when every tuple exists with certainty), plus a distribution-free interval
// for the window median from the quantile sketch, its order-statistic ranks
// widened by the sketch's deterministic rank error bound.
func (q *Query) sketchInfo(s *sketch.ColSummary, d dist.Distribution, w float64, m int) (*accuracy.Info, error) {
	cfg := q.eng.cfg
	info, err := accuracy.ForDistribution(d, s.MinN, cfg.Level)
	if err != nil {
		return nil, err
	}
	half, err := s.Prob.MembershipHalfWidth(w, cfg.Level)
	if err != nil {
		return nil, err
	}
	info.Mean.Lo -= half
	info.Mean.Hi += half
	if m >= 2 {
		med, err := s.Quant.Interval(0.5, cfg.Level)
		if err != nil {
			return nil, err
		}
		info.WindowMedian = &med
	}
	info.Method = "sketch"
	return info, nil
}

// decorate builds the emission of output tuple t, attaching accuracy
// information per the query's backend. mcValues holds per-field Monte Carlo
// value sequences when evaluation produced them (the preferred bootstrap
// input, §III-B category 1).
func (q *Query) decorate(t *stream.Tuple, mcValues [][]float64) (sharedResult, error) {
	sr := sharedResult{tuple: t}
	if q.method == AccuracyNone {
		return sr, nil
	}
	for i, f := range t.Fields {
		if !t.Schema.Columns[i].Probabilistic || f.N < 2 {
			continue
		}
		info, err := q.fieldAccuracy(f, mcValues[i])
		if err != nil {
			return sr, fmt.Errorf("core: accuracy for %s: %w", t.Schema.Columns[i].Name, err)
		}
		if sr.fields == nil {
			sr.fields = make(map[string]*accuracy.Info)
		}
		sr.fields[t.Schema.Columns[i].Name] = info
	}
	if t.Prob < 1 && t.ProbN >= 1 {
		iv, err := accuracy.TupleProbInterval(t.Prob, t.ProbN, q.eng.cfg.Level)
		if err != nil {
			return sr, err
		}
		sr.tupleProb = &iv
	}
	return sr, nil
}

// fieldAccuracy computes one field's accuracy info with the configured
// backend. Under load shedding (engine degrade level > 0) the bootstrap
// backend divides its resample budget by shedDivisor(level): intervals stay
// honest — they widen with the smaller resample count — while each accuracy
// computation gets proportionally cheaper. Shed levels change how many draws
// the category-2 path takes from q.rng, which is why the server journals
// every level transition: replay reproduces the same levels at the same
// records, hence the same RNG evolution.
// minShedResamples floors the shed resample budget. The t-based shed
// interval scales its half-width by the sd of the resample statistics; at
// r=2 that sd has one degree of freedom and varies over orders of
// magnitude, so the reported interval can collapse to a sliver that misses
// the estimate entirely. r=4 (3 d.f.) is the smallest budget whose scale
// estimate is stable enough to mean anything.
const minShedResamples = 4

func (q *Query) fieldAccuracy(f randvar.Field, values []float64) (*accuracy.Info, error) {
	cfg := q.eng.cfg
	switch q.method {
	case AccuracyAnalytical:
		return accuracy.ForDistribution(f.Dist, f.N, cfg.Level)
	case AccuracyBootstrap:
		div := shedDivisor(q.eng.DegradeLevel())
		hist, _ := f.Dist.(*dist.Histogram)
		if f.N <= len(values)/2 { // len(values) ≥ 2n without overflowing 2n
			// §III-B category 1: the Monte Carlo path already produced a
			// value sequence of r = len(values)/n resamples. Shedding keeps
			// a prefix worth max(2, r/div) resamples — no RNG involved, so
			// the trim is deterministic at any level — and switches to the
			// t-based interval that widens honestly at small r.
			if div > 1 {
				r := len(values) / f.N / div
				if r < minShedResamples {
					r = minShedResamples
				}
				if max := len(values) / f.N; r > max {
					r = max
				}
				values = values[:r*f.N]
				q.noteShed()
				return bootstrap.AccuracyInfoShed(values, f.N, cfg.Level, hist)
			}
			return bootstrap.AccuracyInfo(values, f.N, cfg.Level, hist)
		}
		// Category 2: sample from the result distribution.
		if div > 1 {
			resamples := cfg.BootstrapResamples / div
			if resamples < minShedResamples {
				resamples = minShedResamples
			}
			if resamples > cfg.BootstrapResamples {
				resamples = cfg.BootstrapResamples
			}
			q.noteShed()
			return bootstrap.FromDistributionShed(f.Dist, f.N, resamples, cfg.Level, q.rng)
		}
		return bootstrap.FromDistribution(f.Dist, f.N, cfg.BootstrapResamples, cfg.Level, q.rng)
	}
	return nil, fmt.Errorf("core: accuracy method %v", q.method)
}

// noteShed counts one accuracy computation run on a reduced budget.
func (q *Query) noteShed() {
	q.stats.shed.Add(1)
	if !q.eng.recovering.Load() {
		mShedEvals.Inc()
	}
}
