package sketch

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/accuracy"
	"repro/internal/stat"
)

// DefaultQuantileK is the per-level buffer capacity of a Quantile sketch: a
// window of n rows keeps O(K·log(n/K)) items and guarantees a deterministic
// rank error of at most n·⌈log₂(n/K)⌉/(2K) (tracked exactly, not just
// bounded, in ErrW).
const DefaultQuantileK = 256

// Quantile is a mergeable, bounded-memory quantile sketch in the KLL/MRL
// multi-level compaction style, with two deliberate deviations from the
// randomized original:
//
//   - the compactor is deterministic: a per-level parity bit alternates
//     which half of the sorted buffer survives, so Add/Merge sequences are
//     bit-reproducible across replays and replicas — no RNG
//     is consumed anywhere;
//   - the rank error is tracked explicitly: compacting a level whose items
//     have weight w = 2^l can shift any value's estimated rank by at most
//     w, so the sketch accumulates ErrW = Σ 2^l over every compaction it
//     (or any sketch merged into it) performed. Intervals widen their
//     order-statistic ranks by ErrW — the deterministic analogue of the
//     KLL error guarantee, conservative rather than probabilistic.
//
// Compactions only ever fold an even number of items (an odd buffer leaves
// its largest item in place), so the total item weight always equals the
// observation count N exactly and rank queries need no renormalization.
//
// All fields are exported for lossless JSON round-trips through checkpoints
// and replication; mutate only through the methods.
type Quantile struct {
	K      int         `json:"k"`
	N      uint64      `json:"count"`
	Min    float64     `json:"min,omitempty"`
	Max    float64     `json:"max,omitempty"`
	Levels [][]float64 `json:"levels,omitempty"`
	Parity []uint8     `json:"parity,omitempty"`
	ErrW   uint64      `json:"err,omitempty"`
}

// NewQuantile returns an empty sketch with per-level capacity k (minimum 8,
// rounded up to even so compactions stay weight-preserving).
func NewQuantile(k int) *Quantile {
	if k < 8 {
		k = 8
	}
	if k%2 == 1 {
		k++
	}
	return &Quantile{K: k}
}

// Add absorbs one observation. Non-finite values are rejected so sketch
// state stays JSON-serializable.
func (q *Quantile) Add(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("sketch: non-finite observation %v", x)
	}
	if q.N == 0 || x < q.Min {
		q.Min = x
	}
	if q.N == 0 || x > q.Max {
		q.Max = x
	}
	q.N++
	if len(q.Levels) == 0 {
		q.Levels = append(q.Levels, make([]float64, 0, q.K))
		q.Parity = append(q.Parity, 0)
	}
	q.Levels[0] = append(q.Levels[0], x)
	q.compactFrom(0)
	return nil
}

// compactFrom cascades compactions upward from level l while any level is
// at or over capacity.
func (q *Quantile) compactFrom(l int) {
	for ; l < len(q.Levels); l++ {
		if len(q.Levels[l]) < q.K {
			continue
		}
		buf := q.Levels[l]
		sort.Float64s(buf)
		m := len(buf) &^ 1 // fold an even count; an odd buffer keeps its max
		keepFrom := int(q.Parity[l])
		q.Parity[l] ^= 1
		q.ErrW += 1 << uint(l)
		if l+1 >= len(q.Levels) {
			q.Levels = append(q.Levels, make([]float64, 0, q.K))
			q.Parity = append(q.Parity, 0)
		}
		for i := keepFrom; i < m; i += 2 {
			q.Levels[l+1] = append(q.Levels[l+1], buf[i])
		}
		rest := buf[:0]
		rest = append(rest, buf[m:]...)
		q.Levels[l] = rest
	}
}

// Merge combines o into q: per-level item union, error bounds add, then a
// compaction cascade restores the capacity invariant. Merge order is the
// caller's to keep deterministic (the window merges blocks oldest-first,
// cross-shard merges go in shard order).
func (q *Quantile) Merge(o *Quantile) {
	if o == nil || o.N == 0 {
		return
	}
	if q.N == 0 || o.Min < q.Min {
		q.Min = o.Min
	}
	if q.N == 0 || o.Max > q.Max {
		q.Max = o.Max
	}
	q.N += o.N
	q.ErrW += o.ErrW
	for l := range o.Levels {
		for l >= len(q.Levels) {
			q.Levels = append(q.Levels, make([]float64, 0, q.K))
			q.Parity = append(q.Parity, 0)
		}
		q.Levels[l] = append(q.Levels[l], o.Levels[l]...)
	}
	q.compactFrom(0)
}

// Count returns the number of observations absorbed.
func (q *Quantile) Count() uint64 { return q.N }

// ErrorBound returns the accumulated deterministic rank error bound: for
// any value x, |EstRank(x) − true rank of x| ≤ ErrorBound().
func (q *Quantile) ErrorBound() uint64 { return q.ErrW }

// ItemCount returns the number of retained items across all levels — the
// sketch's memory footprint in values.
func (q *Quantile) ItemCount() int {
	n := 0
	for _, lvl := range q.Levels {
		n += len(lvl)
	}
	return n
}

// EstRank estimates the rank of x: the weighted count of retained items
// ≤ x, within ErrorBound of the true count of observations ≤ x.
func (q *Quantile) EstRank(x float64) uint64 {
	var r uint64
	for l, lvl := range q.Levels {
		w := uint64(1) << uint(l)
		for _, v := range lvl {
			if v <= x {
				r += w
			}
		}
	}
	return r
}

// ValueAtRank returns the estimated value of the rank-th smallest
// observation (1-based). Ranks at or below 1 return the exact minimum,
// ranks at or above N the exact maximum.
func (q *Quantile) ValueAtRank(rank int64) float64 {
	if q.N == 0 {
		return math.NaN()
	}
	if rank <= 1 {
		return q.Min
	}
	if rank >= int64(q.N) {
		return q.Max
	}
	type wv struct {
		v float64
		w uint64
	}
	items := make([]wv, 0, q.ItemCount())
	for l, lvl := range q.Levels {
		w := uint64(1) << uint(l)
		for _, v := range lvl {
			items = append(items, wv{v, w})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	var cum uint64
	for _, it := range items {
		cum += it.w
		if cum >= uint64(rank) {
			return it.v
		}
	}
	return q.Max
}

// Query returns the estimated p-quantile (0 ≤ p ≤ 1).
func (q *Quantile) Query(p float64) float64 {
	if q.N == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(p * float64(q.N)))
	return q.ValueAtRank(rank)
}

// Interval returns a distribution-free confidence interval for the
// population p-quantile at level c, derived from the same order-statistic
// rank rule as accuracy.QuantileInterval and widened by the sketch's
// deterministic rank error bound: the exact interval's ranks (l, u) become
// (l − ErrW, u + ErrW), so coverage is at least the exact construction's
// achieved level — honestly wider, never less covered.
func (q *Quantile) Interval(p, c float64) (accuracy.Interval, error) {
	if q.N > math.MaxInt32 {
		return accuracy.Interval{}, fmt.Errorf("sketch: %d observations too many for a quantile interval", q.N)
	}
	n := int(q.N)
	if n < 2 {
		return accuracy.Interval{}, fmt.Errorf("%w: quantile interval needs n ≥ 2, have %d", accuracy.ErrSampleSize, n)
	}
	l, u, achieved, err := accuracy.QuantileRanks(n, p, c)
	if err != nil {
		return accuracy.Interval{}, err
	}
	lo := q.ValueAtRank(int64(l) - int64(q.ErrW))
	hi := q.ValueAtRank(int64(u) + int64(q.ErrW))
	return accuracy.Interval{Lo: lo, Hi: hi, Level: achieved}, nil
}

// Validate checks structural consistency of (possibly deserialized) state.
func (q *Quantile) Validate() error {
	if q.K < 8 || q.K%2 == 1 {
		return fmt.Errorf("sketch: quantile capacity %d invalid", q.K)
	}
	if len(q.Parity) != len(q.Levels) {
		return fmt.Errorf("sketch: %d parity bits for %d levels", len(q.Parity), len(q.Levels))
	}
	var weight uint64
	for l, lvl := range q.Levels {
		if l >= 63 {
			return fmt.Errorf("sketch: quantile level %d out of range", l)
		}
		for _, v := range lvl {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sketch: non-finite retained value at level %d", l)
			}
			if q.N > 0 && (v < q.Min || v > q.Max) {
				return fmt.Errorf("sketch: retained value %v outside [min, max] = [%v, %v]", v, q.Min, q.Max)
			}
		}
		weight += uint64(len(lvl)) << uint(l)
	}
	if weight != q.N {
		return fmt.Errorf("sketch: retained weight %d does not equal count %d", weight, q.N)
	}
	if q.N > 0 && (math.IsNaN(q.Min) || math.IsInf(q.Min, 0) || math.IsNaN(q.Max) || math.IsInf(q.Max, 0) || q.Min > q.Max) {
		return fmt.Errorf("sketch: invalid extremes [%v, %v]", q.Min, q.Max)
	}
	return nil
}

// clone returns a deep copy (used by merge-order property tests and the
// window's merged-summary construction).
func (q *Quantile) clone() *Quantile {
	out := &Quantile{K: q.K, N: q.N, Min: q.Min, Max: q.Max, ErrW: q.ErrW}
	out.Levels = make([][]float64, len(q.Levels))
	for i, lvl := range q.Levels {
		out.Levels[i] = append(make([]float64, 0, len(lvl)), lvl...)
	}
	out.Parity = append([]uint8(nil), q.Parity...)
	return out
}

// zUpperLevel validates a confidence level and returns the matching upper
// normal quantile z with (1−c)/2 mass above it.
func zUpperLevel(c float64) (float64, error) {
	if err := stat.CheckLevel(c); err != nil {
		return 0, fmt.Errorf("sketch: confidence level %v: %w", c, err)
	}
	return stat.ZUpper((1 - c) / 2), nil
}
