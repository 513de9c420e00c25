package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// This file is the engine half of the durability subsystem: it exposes the
// complete runtime state of a compiled Query — window contents, per-group
// windows, join windows, RNG states, counters — as one plain value whose
// JSON form is what a checkpoint stores, and restores it into a freshly
// compiled query. Every window travels as a stream.ColumnWindowState. This
// layer guarantees that a restored query is observationally identical to
// the captured one: every subsequent Push draws the same variates and emits
// the same results bit-for-bit.

// GroupWindowState is the window of one GROUP BY key.
type GroupWindowState struct {
	Key       float64                   `json:"key"`
	ColWindow *stream.ColumnWindowState `json:"col_window,omitempty"`
}

// QueryState is the complete mutable state of a compiled Query. Everything
// else about a query (plan, predicates, output schema) is a pure function
// of its SQL text and the engine configuration, so SQL + QueryState fully
// determine future behavior.
type QueryState struct {
	// Eval is the state of the expression evaluator's Monte Carlo RNG.
	Eval dist.RandState `json:"eval_rng"`
	// Boot is the state of the bootstrap accuracy sampler's RNG.
	Boot dist.RandState `json:"boot_rng"`
	// Stats are the query counters.
	Stats QueryStats `json:"stats"`
	// ColWindow holds the ungrouped aggregate window (count- or
	// time-based), nil when the query has none.
	ColWindow *stream.ColumnWindowState `json:"col_window,omitempty"`
	// Groups holds per-key windows of GROUP BY queries, sorted by key.
	Groups []GroupWindowState `json:"groups,omitempty"`
	// JoinLeft and JoinRight hold the symmetric join windows.
	JoinLeft  *stream.ColumnWindowState `json:"col_join_left,omitempty"`
	JoinRight *stream.ColumnWindowState `json:"col_join_right,omitempty"`
	// Sketch holds the sketch-backend window (BACKEND SKETCH queries);
	// mutually exclusive with the materialized window forms. Its state is
	// plain floats and integers, which JSON round-trips exactly.
	Sketch *sketch.Window `json:"sketch,omitempty"`
}

// State captures the query's complete mutable state as a value detached
// from the query: pushing the query again leaves it unchanged.
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
		st.JoinLeft = q.join.leftWin.State()
		st.JoinRight = q.join.rightWin.State()
	}
	return st
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
	if st.ColWindow != nil {
		if g.win == nil {
			return errors.New("core: window state for a query without an ungrouped window")
		}
		if err := restoreWindow(g.win, q.in, st.ColWindow); err != nil {
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
			if err := restoreWindow(w, q.in, gs.ColWindow); err != nil {
				return err
			}
			g.groups[gs.Key] = w
		}
	}
	if st.JoinLeft != nil || st.JoinRight != nil {
		if q.join == nil {
			return errors.New("core: join state for a non-join query")
		}
		if err := restoreWindow(q.join.leftWin, q.join.leftSchema, st.JoinLeft); err != nil {
			return err
		}
		if err := restoreWindow(q.join.rightWin, q.join.rightSchema, st.JoinRight); err != nil {
			return err
		}
	}
	return nil
}

// restoreWindow loads a captured window into w, validating every tuple
// against schema. It leaves w as it is when no window was captured.
func restoreWindow(w *stream.ColumnWindow, schema *stream.Schema, cs *stream.ColumnWindowState) error {
	if cs == nil {
		return nil
	}
	tuples, err := cs.Tuples(schema)
	if err != nil {
		return fmt.Errorf("core: restoring columnar window: %w", err)
	}
	return w.RestoreTuples(tuples)
}
