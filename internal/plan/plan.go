// Package plan is the engine's multi-query planner pass. Production load
// for an accuracy-aware stream database is thousands of continuous queries
// over a handful of streams, and most of them differ only in labels or in
// which aggregates they request — so the expensive per-push state (the
// learned window buffer, the closed-form moment scan, the accuracy
// intervals) can be computed once per (stream, filter, window, backend)
// equivalence class and reused by every query in the class.
//
// The package deliberately splits three concerns, in the style of the
// planner/executor/annotations split of datalog engines:
//
//   - Analyze is the pure, static planner pass: it inspects a parsed
//     statement and decides whether the query's window state is shareable
//     at all, returning a Decision with a human-readable reason when it is
//     not. The analysis is conservative: a query is shareable only when
//     every part of its pre-aggregation pipeline is provably free of
//     per-query randomness, so sharing can never change a single bit of
//     output.
//   - Registry is the executor-side shared-state table: refcount-free
//     (the engine owns membership), keyed by Key, holding one opaque
//     group state per equivalence class with content-equality admission
//     delegated to the caller.
//   - StageTimer collects per-stage wall-clock timing for EXPLAIN
//     annotations, atomically gated so the disabled fast path costs one
//     atomic load per stage.
//
// The engine half — window aliasing, the per-sequence emission cache,
// fused aggregate evaluation — lives in internal/core (plan_shared.go),
// which consumes this package.
package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sql"
)

// Key identifies one shared-state equivalence class: every query with the
// same key consumes the same stream prefix through the same filter into a
// window of the same shape under the same accuracy backend, so the window
// contents — and everything derived from them without per-query randomness
// — are identical across the class.
type Key struct {
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

func (k Key) String() string {
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

// Decision is the outcome of the static shareability analysis.
type Decision struct {
	// Shareable reports whether the query's window state may join a
	// shared-state group.
	Shareable bool
	// Reason explains a false Shareable in EXPLAIN output.
	Reason string
}

func no(reason string) Decision { return Decision{Reason: reason} }

// Analyze decides whether a parsed statement's window state is shareable.
// backend is the effective accuracy backend string (the engine default or
// the statement's BACKEND override, lower-cased as core.AccuracyMethod
// prints it). The analysis is static and conservative: only ungrouped
// count-windowed aggregates whose filter is provably free of per-query
// randomness qualify, because those are exactly the queries whose window
// contents and filter outcomes are a pure function of (stream history,
// key) — sharing them cannot change any output bit.
func Analyze(stmt *sql.SelectStmt, backend string) Decision {
	if stmt == nil {
		return no("nil statement")
	}
	if stmt.Join != nil {
		return no("join queries keep per-query symmetric windows")
	}
	if stmt.GroupBy != "" {
		return no("GROUP BY windows are per-key")
	}
	if !hasAggregate(stmt) {
		return no("scalar query has no window state")
	}
	if stmt.Window == nil {
		return no("no WINDOW clause")
	}
	if stmt.Window.Seconds > 0 {
		return no("time windows are per-query: the shared pipeline slides count windows only")
	}
	if !FilterShareable(stmt.Where) {
		return no("filter may consume per-query randomness")
	}
	return Decision{Shareable: true}
}

// hasAggregate reports whether any select item is an aggregate call.
func hasAggregate(stmt *sql.SelectStmt) bool {
	for _, it := range stmt.Items {
		if call, ok := it.Expr.(*sql.CallExpr); ok {
			switch call.Func {
			case "AVG", "SUM", "COUNT", "MIN", "MAX":
				return true
			}
		}
	}
	return false
}

// FilterShareable reports whether a WHERE expression is statically free of
// per-query randomness, i.e. its outcome for a given tuple is identical
// for every query evaluating it. Column-vs-constant comparisons compile to
// closed-form probability integrals, PROB threshold forms reuse them, and
// the significance predicates (MTEST, MDTEST, KSTEST, and PTEST over a
// closed-form comparison) are deterministic hypothesis tests — none touch
// the query's Monte Carlo evaluator. Everything else (general
// expression-vs-expression comparisons can fall back to Monte Carlo over
// the per-query RNG stream) is conservatively unshareable.
func FilterShareable(e sql.Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *sql.LogicalExpr:
		return FilterShareable(x.L) && FilterShareable(x.R)
	case *sql.NotExpr:
		return FilterShareable(x.X)
	case *sql.CmpExpr:
		return cmpShareable(x)
	case *sql.CallExpr:
		return callShareable(x)
	}
	return false
}

// cmpShareable covers the comparison forms that compile to closed-form
// probability integrals: column-vs-constant (either order) and
// PROB(column cmp constant) against a constant threshold (either order).
func cmpShareable(c *sql.CmpExpr) bool {
	if (isColumn(c.L) && isConst(c.R)) || (isConst(c.L) && isColumn(c.R)) {
		return true
	}
	if isProbCall(c.L) && isConst(c.R) {
		return true
	}
	if isConst(c.L) && isProbCall(c.R) {
		return true
	}
	return false
}

// callShareable covers the deterministic hypothesis-test predicates.
func callShareable(c *sql.CallExpr) bool {
	switch c.Func {
	case "MTEST", "MDTEST", "KSTEST":
		return true
	case "PTEST":
		if len(c.Args) == 0 {
			return false
		}
		inner, ok := c.Args[0].(*sql.CmpExpr)
		return ok && cmpShareable(inner) && !isProbCall(inner.L) && !isProbCall(inner.R)
	}
	return false
}

func isColumn(e sql.Expr) bool {
	_, ok := e.(*sql.ColumnRef)
	return ok
}

// isConst matches the constant forms the predicate compiler accepts: a
// number literal, possibly under unary minus.
func isConst(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.NumberLit:
		return true
	case *sql.UnaryExpr:
		if x.Op != "-" {
			return false
		}
		_, ok := x.X.(*sql.NumberLit)
		return ok
	}
	return false
}

// isProbCall matches PROB(column cmp constant).
func isProbCall(e sql.Expr) bool {
	call, ok := e.(*sql.CallExpr)
	if !ok || call.Func != "PROB" || len(call.Args) != 1 {
		return false
	}
	inner, ok := call.Args[0].(*sql.CmpExpr)
	if !ok {
		return false
	}
	return (isColumn(inner.L) && isConst(inner.R)) || (isConst(inner.L) && isColumn(inner.R))
}

// Registry is the shared-state table: one entry list per Key, each entry
// an opaque group state owned by the engine. Admission is two-phase — key
// equality selects the list, then the caller's join predicate checks
// content equality (after crash recovery, queries re-merge only when their
// restored windows hold identical contents), so a key can momentarily hold
// several groups that converge as the stream advances.
//
// Locking: Acquire and Release run under the engine's control plane
// (Exclusive or single-threaded registration), so the mutex only guards
// against concurrent read-side introspection (EXPLAIN, stats).
type Registry struct {
	mu     sync.Mutex
	groups map[Key][]any

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[Key][]any)}
}

// Acquire returns the first group under k accepted by join, or — when none
// is — a fresh group built by create. The boolean reports whether an
// existing group was joined.
func (r *Registry) Acquire(k Key, join func(state any) bool, create func() any) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.groups[k] {
		if join(g) {
			r.hits.Add(1)
			return g, true
		}
	}
	r.misses.Add(1)
	g := create()
	r.groups[k] = append(r.groups[k], g)
	return g, false
}

// Release removes a group whose last member detached.
func (r *Registry) Release(k Key, state any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.groups[k]
	for i, g := range list {
		if g == state {
			r.groups[k] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(r.groups[k]) == 0 {
		delete(r.groups, k)
	}
}

// Groups returns the number of live shared-state groups.
func (r *Registry) Groups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, list := range r.groups {
		n += len(list)
	}
	return n
}

// Hits returns how many Acquire calls joined an existing group.
func (r *Registry) Hits() uint64 { return r.hits.Load() }

// Misses returns how many Acquire calls created a new group.
func (r *Registry) Misses() uint64 { return r.misses.Load() }

// Stage names one instrumented phase of the per-push pipeline.
type Stage int

const (
	// StageFilter is WHERE evaluation.
	StageFilter Stage = iota
	// StageWindow is window maintenance (push/evict).
	StageWindow
	// StageAggregate is aggregate evaluation over the window.
	StageAggregate
	// StageAccuracy is accuracy-information computation.
	StageAccuracy
	// NumStages bounds the stage enumeration.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageFilter:
		return "filter"
	case StageWindow:
		return "window"
	case StageAggregate:
		return "aggregate"
	case StageAccuracy:
		return "accuracy"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// StageStat is one stage's cumulative observation.
type StageStat struct {
	Count uint64
	Nanos uint64
}

// StageTimer accumulates per-stage wall time. Collection is off until
// Enable (the first EXPLAIN … TIMING), so steady-state pushes pay one
// atomic load per stage and take no timestamps. Timing is observational
// only — it never feeds back into results, so enabling it cannot perturb
// determinism.
type StageTimer struct {
	enabled atomic.Bool
	count   [NumStages]atomic.Uint64
	nanos   [NumStages]atomic.Uint64
}

// Enable turns collection on.
func (t *StageTimer) Enable() { t.enabled.Store(true) }

// Enabled reports whether collection is on.
func (t *StageTimer) Enabled() bool { return t.enabled.Load() }

// Observe records one stage execution.
func (t *StageTimer) Observe(s Stage, d time.Duration) {
	if s < 0 || s >= NumStages {
		return
	}
	t.count[s].Add(1)
	t.nanos[s].Add(uint64(d.Nanoseconds()))
}

// Snapshot returns the cumulative per-stage observations.
func (t *StageTimer) Snapshot() [NumStages]StageStat {
	var out [NumStages]StageStat
	for s := range out {
		out[s] = StageStat{Count: t.count[s].Load(), Nanos: t.nanos[s].Load()}
	}
	return out
}
