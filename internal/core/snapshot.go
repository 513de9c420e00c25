package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// This file is the engine half of the durability subsystem: it exposes the
// complete runtime state of a compiled Query — window contents, per-group
// windows, join windows, RNG states, counters — as plain serializable
// structs, and restores them into a freshly compiled query. The checkpoint
// package handles the on-disk encoding (distributions travel through
// internal/codec); this layer guarantees that a restored query is
// observationally identical to the captured one: every subsequent Push
// draws the same variates and emits the same results bit-for-bit.

// TupleState is the serializable state of one windowed tuple.
type TupleState struct {
	Fields []randvar.Field
	Prob   float64
	ProbN  int
	Seq    uint64
	Time   int64
}

// WindowState is the serializable contents of one sliding window in row
// form, oldest-first: what join windows are captured as, and what
// checkpoints written before aggregate windows were columnar hold.
type WindowState struct {
	Tuples []TupleState
}

// GroupWindowState is the window of one GROUP BY key. State fills
// ColWindow; SetState also accepts the legacy row form in Window.
type GroupWindowState struct {
	Key       float64
	Window    WindowState
	ColWindow *stream.ColumnWindowState
}

// QueryState is the complete mutable state of a compiled Query. Everything
// else about a query (plan, predicates, output schema) is a pure function
// of its SQL text and the engine configuration, so SQL + QueryState fully
// determine future behavior.
type QueryState struct {
	// Eval is the state of the expression evaluator's Monte Carlo RNG.
	Eval dist.RandState
	// Boot is the state of the bootstrap accuracy sampler's RNG.
	Boot dist.RandState
	// Stats are the query counters.
	Stats QueryStats
	// ColWindow holds the ungrouped aggregate window (count- or
	// time-based), nil when the query has none.
	ColWindow *stream.ColumnWindowState
	// Window is the legacy row form of ColWindow: State never fills it,
	// SetState restores from either, so checkpoints written before
	// aggregate windows were columnar still recover.
	Window *WindowState
	// Groups holds per-key windows of GROUP BY queries, sorted by key.
	Groups []GroupWindowState
	// JoinLeft and JoinRight hold the symmetric join windows.
	JoinLeft  *WindowState
	JoinRight *WindowState
	// Sketch holds the sketch-backend window (BACKEND SKETCH queries);
	// mutually exclusive with the materialized window forms.
	Sketch *sketch.Window
}

// State captures the query's complete mutable state. The returned structs
// reference the query's live tuples and must be consumed (serialized)
// before the query is pushed again.
func (q *Query) State() *QueryState {
	st := &QueryState{
		Eval:  q.ev.RNG().State(),
		Boot:  q.rng.State(),
		Stats: q.stats.snapshot(),
	}
	if g := q.group; g != nil {
		switch {
		case g.sk != nil:
			st.Sketch = g.sk.Clone()
		case g.win != nil:
			st.ColWindow = g.win.State()
		}
		keys := make([]float64, 0, len(g.groups))
		for k := range g.groups {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		for _, k := range keys {
			st.Groups = append(st.Groups, GroupWindowState{Key: k, ColWindow: g.groups[k].State()})
		}
	}
	if q.join != nil {
		st.JoinLeft = windowState(q.join.leftWin.Tuples())
		st.JoinRight = windowState(q.join.rightWin.Tuples())
	}
	return st
}

func windowState(tuples []*stream.Tuple) *WindowState {
	ws := &WindowState{Tuples: make([]TupleState, len(tuples))}
	for i, t := range tuples {
		ws.Tuples[i] = TupleState{
			Fields: t.Fields,
			Prob:   t.Prob,
			ProbN:  t.ProbN,
			Seq:    t.Seq,
			Time:   t.Time,
		}
	}
	return ws
}

// SetState restores a state captured with State into a freshly compiled
// query over the same SQL and engine configuration. Window state is
// restored into the query's plan group, its only owner.
func (q *Query) SetState(st *QueryState) error {
	if st == nil {
		return errors.New("core: nil query state")
	}
	if err := q.ev.RNG().SetState(st.Eval); err != nil {
		return fmt.Errorf("core: evaluator RNG: %w", err)
	}
	if err := q.rng.SetState(st.Boot); err != nil {
		return fmt.Errorf("core: bootstrap RNG: %w", err)
	}
	q.stats.restore(st.Stats)
	g := q.group
	if g == nil {
		// A scalar query has no window state: an empty group makes every
		// window form below an error.
		g = &sharedGroup{}
	}
	if st.Sketch != nil {
		sk := g.sk
		if sk == nil {
			return errors.New("core: sketch state for a non-sketch query")
		}
		if err := st.Sketch.Validate(); err != nil {
			return fmt.Errorf("core: restoring sketch window: %w", err)
		}
		if st.Sketch.W != sk.W || st.Sketch.NCols != sk.NCols ||
			st.Sketch.B != sk.B || st.Sketch.K != sk.K {
			return fmt.Errorf("core: sketch window geometry (w=%d b=%d k=%d cols=%d) does not match plan (w=%d b=%d k=%d cols=%d)",
				st.Sketch.W, st.Sketch.B, st.Sketch.K, st.Sketch.NCols,
				sk.W, sk.B, sk.K, sk.NCols)
		}
		g.sk = st.Sketch.Clone()
	}
	if st.Window != nil || st.ColWindow != nil {
		if g.win == nil {
			return errors.New("core: window state for a query without an ungrouped window")
		}
		if err := restoreWindow(g.win, q.in, st.Window, st.ColWindow); err != nil {
			return err
		}
	}
	if len(st.Groups) > 0 {
		if g.groups == nil {
			return errors.New("core: group state for a query without GROUP BY")
		}
		for _, gs := range st.Groups {
			w, err := q.newWindow()
			if err != nil {
				return err
			}
			if err := restoreWindow(w, q.in, &gs.Window, gs.ColWindow); err != nil {
				return err
			}
			g.groups[gs.Key] = w
		}
	}
	if st.JoinLeft != nil || st.JoinRight != nil {
		if q.join == nil {
			return errors.New("core: join state for a non-join query")
		}
		if err := restoreWindow(q.join.leftWin, q.join.leftSchema, st.JoinLeft, nil); err != nil {
			return err
		}
		if err := restoreWindow(q.join.rightWin, q.join.rightSchema, st.JoinRight, nil); err != nil {
			return err
		}
	}
	return nil
}

// restoreWindow loads a captured window into w: the columnar form cs when
// there is one, else the row form ws. It leaves w as it is when neither
// was captured.
func restoreWindow(w *stream.ColumnWindow, schema *stream.Schema, ws *WindowState, cs *stream.ColumnWindowState) error {
	var tuples []*stream.Tuple
	var err error
	switch {
	case cs != nil:
		if tuples, err = cs.Tuples(schema); err != nil {
			return fmt.Errorf("core: restoring columnar window: %w", err)
		}
	case ws != nil:
		if tuples, err = restoreTuples(schema, ws); err != nil {
			return err
		}
	default:
		return nil
	}
	return w.RestoreTuples(tuples)
}

// restoreTuples rebuilds window tuples against schema, revalidating each.
func restoreTuples(schema *stream.Schema, ws *WindowState) ([]*stream.Tuple, error) {
	out := make([]*stream.Tuple, len(ws.Tuples))
	for i, ts := range ws.Tuples {
		t := &stream.Tuple{
			Schema: schema,
			Fields: ts.Fields,
			Prob:   ts.Prob,
			ProbN:  ts.ProbN,
			Seq:    ts.Seq,
			Time:   ts.Time,
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("core: restoring window tuple %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
