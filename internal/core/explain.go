package core

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/stream"
)

// Explain renders a human-readable description of the compiled plan: the
// execution mode, windows, join shape, filter presence, and — central to
// this system — where accuracy information comes from.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query: %s\n", q.stmt)
	if q.join != nil {
		fmt.Fprintf(&b, "  join: symmetric window equi-join %s ⋈ %s on key columns %q = %q (window %d rows per side)\n",
			q.join.leftSchema.Name, q.join.rightSchema.Name,
			q.join.leftSchema.Columns[q.join.leftKey].Name,
			q.join.rightSchema.Columns[q.join.rightKey].Name,
			q.join.leftWin.Cap())
	} else {
		fmt.Fprintf(&b, "  source: stream %s\n", q.in.Name)
	}
	if q.where != nil {
		fmt.Fprintf(&b, "  filter: %s (possible-world semantics; membership probability multiplied, d.f. size per Lemma 3)\n",
			q.stmt.Where)
	}
	switch q.mode {
	case modeAggregate:
		if q.join == nil {
			switch g := q.group; {
			case g.registered:
				// Only structural facts here: lead/follow counters depend on
				// how much history this node replayed (a replica caught up
				// from a snapshot skips earlier pushes), so they live in
				// ExplainTiming, keeping Explain byte-identical across
				// replicas and crash recovery.
				fmt.Fprintf(&b, "  plan: shared state [%s] — %d sharer(s), window+filter+closed-form aggregates computed once per tuple\n",
					g.key, g.sharers.Load())
			case q.prof.Shareable:
				fmt.Fprintf(&b, "  plan: shareable [%s] — not yet bound to a shared-state group\n", q.prof.Key)
			default:
				fmt.Fprintf(&b, "  plan: per-query state — %s\n", q.prof.Reason)
			}
		}
		sk := q.group.sk
		var windowDesc string
		switch {
		case sk != nil:
			windowDesc = fmt.Sprintf("sketch count window of %d rows (%d blocks of %d rows, quantile K=%d; block-granular slide, one emission per sealed block)",
				sk.W, sk.B, sk.BlockRows, sk.K)
		case q.stmt.Window.Seconds > 0:
			windowDesc = fmt.Sprintf("time window of %d seconds", q.stmt.Window.Seconds)
		default:
			windowDesc = fmt.Sprintf("count window of %d rows", q.stmt.Window.Rows)
		}
		if q.groupIdx >= 0 {
			fmt.Fprintf(&b, "  aggregate: grouped by %s, %s per group\n",
				q.in.Columns[q.groupIdx].Name, windowDesc)
		} else {
			fmt.Fprintf(&b, "  aggregate: %s\n", windowDesc)
		}
		for _, a := range q.aggs {
			fmt.Fprintf(&b, "    %s(%s) AS %s", a.kind, q.in.Columns[a.colIdx].Name, a.label)
			switch {
			case sk != nil && (a.kind == stream.Avg || a.kind == stream.Sum):
				b.WriteString("  [Gaussian closed form from merged moment sketches]")
			case sk != nil && (a.kind == stream.Min || a.kind == stream.Max):
				b.WriteString("  [exact extreme of per-tuple means]")
			case a.kind == stream.Avg || a.kind == stream.Sum:
				b.WriteString("  [Gaussian closed form when inputs allow]")
			}
			b.WriteByte('\n')
		}
	default:
		fmt.Fprintf(&b, "  project: %d columns\n", len(q.scalars))
		for _, s := range q.scalars {
			if s.passthrough >= 0 {
				fmt.Fprintf(&b, "    %s (passthrough)\n", s.label)
				continue
			}
			path := "Monte Carlo"
			if s.expr.linOK {
				path = "linear: Gaussian closed form when inputs allow, else Monte Carlo"
			}
			fmt.Fprintf(&b, "    %s = %s  [%s]\n", s.label, s.expr.label, path)
		}
	}
	fmt.Fprintf(&b, "  accuracy: %s", q.method)
	if q.method != AccuracyNone {
		fmt.Fprintf(&b, " at %g%% confidence", q.eng.cfg.Level*100)
		if q.method == AccuracyBootstrap {
			fmt.Fprintf(&b, " (value sequences when Monte Carlo ran, else %d d.f. resamples)",
				q.eng.cfg.BootstrapResamples)
		}
		if q.method == AccuracySketch {
			b.WriteString(" (mergeable bounded-memory summaries; median ranks widened by the deterministic sketch rank-error bound, mean intervals by membership uncertainty)")
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  output: %s\n", q.out)
	return b.String()
}

// ExplainTiming renders the query's per-stage wall-clock timing, enabling
// collection on first call (so steady-state pushes pay nothing until
// someone asks). Unlike Explain, the output contains wall times and is
// inherently non-deterministic — it is an operator tool, never part of the
// byte-identical DATA/EXPLAIN surface.
func (q *Query) ExplainTiming() string {
	first := !q.timing.Enabled()
	q.timing.Enable()
	var b strings.Builder
	fmt.Fprintf(&b, "Timing: %s\n", q.stmt)
	if first {
		b.WriteString("  collection enabled by this call; counters accumulate from now\n")
	}
	snap := q.timing.Snapshot()
	for s, st := range snap {
		fmt.Fprintf(&b, "  stage %-9s %d timed runs, %d ns total\n", plan.Stage(s), st.Count, st.Nanos)
	}
	if g := q.group; g != nil && g.registered {
		fmt.Fprintf(&b, "  shared group [%s]: %d sharers, %d emissions computed, %d replayed from the group cache\n",
			g.key, g.sharers.Load(), g.leads.Load(), g.follows.Load())
	}
	return b.String()
}
