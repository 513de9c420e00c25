// Package sketch implements bounded-memory, mergeable, one-pass summaries
// for the accuracy backend BACKEND SKETCH: windows of millions of tuples in
// O(polylog) memory with honest — wider, but calibrated — accuracy
// intervals derived from documented sketch error bounds.
//
// Three summary families compose the backend:
//
//   - Moments: single-pass mean/variance in the numerically stable Welford
//     update form, merged with Chan et al.'s pairwise combination (the
//     "blocked Welford/Chan" form already used inside the bootstrap
//     kernel). Moment merges are algebraically exact; only float rounding
//     differs from a sequential pass, and the summation order is fixed by
//     the block structure, so results are deterministic at any worker
//     count.
//
//   - ProbMoments: the membership term Σpᵢ(1−pᵢ)·x̄ᵢ² of a sum's
//     possible-world variance for tuples with membership probabilities,
//     after McGregor & Muthukrishnan's one-pass estimators for aggregates
//     over probabilistic streams, mergeable by addition.
//
//   - Quantile: a KLL-style multi-level compacting quantile sketch with a
//     deterministic alternating compactor (no RNG — replicas and replays
//     are bit-identical by construction) and an explicitly tracked rank
//     error bound: each compaction of a level holding items of weight
//     w = 2^l perturbs the rank of any value by at most w, so the sketch
//     carries ErrorBound = Σ 2^l over its compactions. Intervals widen
//     their order-statistic ranks by that bound — distribution-free
//     coverage is preserved, the interval is honestly wider.
//
// A Window arranges per-column summaries into a ring of fixed-row blocks:
// the active block absorbs pushes, sealed blocks are immutable, and the
// oldest block is evicted when the live row count would exceed the window
// size by a full block. The merged summary therefore covers the most
// recent W..W+blockRows−1 rows (sliding at block granularity), which is
// the documented semantic difference from the exact backends' row-granular
// slide. Emission happens once per sealed block, not once per push.
//
// Mergeability is the point: per-block summaries compose across PR-4
// ingest shards and PR-7 cluster nodes by the same Merge operations used
// inside a single window, with error bounds combining additively. The
// merge-property suite pins sketch(A)+sketch(B) ≡ sketch(A∥B) within the
// documented bounds.
//
// Nothing in this package consumes randomness, allocates per push on the
// steady-state path, or depends on GOMAXPROCS; all state round-trips
// losslessly through JSON (float64 shortest-form encoding is exact), which
// is how checkpoints and WAL-shipped replicas stay bit-identical.
package sketch
