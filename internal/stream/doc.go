// Package stream is the uncertain stream database substrate (§II-A): typed
// schemas, tuples with both tuple uncertainty (a membership probability)
// and attribute uncertainty (distribution-valued fields), sliding windows,
// window aggregates, and the streaming learner.
//
// Accuracy information flows with the data: every probabilistic field
// carries the sample size its distribution was learned from, and every
// aggregate derives its output sample size via Lemma 3, so that the engine
// (package core) can attach confidence intervals to any query result.
//
// There are two windows. ColumnWindow is the window of every exact
// aggregate query: one columnar ring that evicts by count (WINDOW n ROWS)
// or by time span (WINDOW n SECONDS), with one closed-form Gaussian scan.
// CountWindow is a ring of whole tuples and exists for joins, whose probe
// needs every field of a match. Aggregate over a []randvar.Field is both the
// Monte Carlo path AggregateColumn falls back to and the reference its
// closed form is tested against.
//
// # Ownership contract
//
// Windows, columns, and rendered frames pass through several layers that
// reuse buffers aggressively; the rules below say who may retain what, and
// for how long. Violating them does not fail fast — it silently corrupts
// results (typically by aliasing a buffer that a later push overwrites), so
// every rule here is backed by an aliasing test that checks values, not
// lengths.
//
// Tuples:
//
//   - A *Tuple handed to an ingest path (core's Query.Push,
//     CountWindow.Push, ColumnWindow.Push/Admit) is owned by the callee
//     from that point on. The caller must not mutate the tuple or its
//     Fields slice afterwards. Callers that need to keep writing must pass
//     t.Clone().
//   - Fields[i].Dist values are immutable by convention: no code in this
//     module ever mutates a distribution after construction, which is what
//     makes Clone's shallow copy of the Dist pointers safe.
//   - ColumnWindow does NOT retain the tuple: pushing copies the per-field
//     scalars (and, for non-Gaussian fields, the immutable Dist pointer,
//     released again when the slot is evicted or overwritten) into its
//     column arrays and drops the tuple reference. No aggregate window
//     holds a caller's *Tuple. CountWindow — the join window — is the one
//     window that retains the *Tuple pointers it was given, until
//     eviction.
//
// Emitted tuples:
//
//   - A *Tuple a query emits (core.Result.Tuple) is immutable from the
//     moment it is returned: neither the engine nor any consumer writes to
//     the tuple, its Fields slice, or the accuracy values returned beside
//     it (Result.Fields entries, Result.TupleProb).
//   - An emitted tuple belongs to exactly one emission. Every unshared
//     evaluation allocates its own output tuple; only a plan group hands
//     one tuple — together with the one Fields map and TupleProb computed
//     for it — to several member queries. Pointer identity of
//     Result.Tuple therefore means "same emission, same accuracy values",
//     which is what lets the server render an emission's wire body once
//     and reuse the bytes for every result carrying that tuple, and equal
//     values behind distinct tuples never qualify.
//
// Window snapshots:
//
//   - CountWindow's Tuples()/AppendTuples return the retained tuples, which
//     the caller may read until the next Push on the same window; after
//     that they may have been evicted. Callers that outlive the next push
//     must deep-copy.
//   - ColumnWindow.Tuples materializes fresh *Tuple values; those are
//     owned by the caller, but their Dist pointers are shared with the
//     window for non-Gaussian fields (safe: immutable).
//   - Column slices returned by internal scans (ColumnWindow's kind/mean/
//     variance arrays) are live ring storage, never handed out across an
//     API boundary; aggregate kernels must finish reading them before
//     returning.
//
// Rendered body frames (internal/server):
//
//   - An emission's JSON body (newline included, no "DATA <id> " prefix)
//     is rendered exactly once into a pooled frame, and every DATA line
//     that carries it — one per plan-group member and recipient — refers
//     to that frame; the prefix is written in front of the body as the
//     line is staged into a write buffer.
//   - The frame is reference-counted: the planner stores, once the whole
//     command is planned, one reference per line bound for another
//     connection plus one the command holds if any line goes to the
//     inserting connection (those lines hold none). Each holder — outbox
//     enqueue-then-copy, synchronous write, slow-client drop, teardown
//     drain, and the command after its write batch or its failed fsync
//     wait — releases exactly once, and the frame returns to the pool only
//     when the count reaches zero. Nobody may touch frame.buf after their
//     release.
package stream
