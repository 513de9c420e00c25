package stream

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/randvar"
)

// Column slot kinds. Point and Normal fields are decomposed into plain
// float64 columns; anything else keeps its (immutable) Distribution.
const (
	slotPoint uint8 = iota
	slotNormal
	slotOther
)

// winColumn is the columnar storage for one schema column: parallel arrays
// indexed by ring slot.
type winColumn struct {
	kind []uint8
	// mean holds Point.V for point slots and Normal.Mu for normal slots;
	// it is meaningless (stale) for other slots.
	mean []float64
	// varr holds Normal.Sigma2 for normal slots and 0 for point slots;
	// meaningless for other slots.
	varr []float64
	// n is the field's d.f. sample size.
	n []int
	// other holds the original Distribution for slots that are neither
	// Point nor Normal; nil everywhere else. Lazily allocated: windows of
	// purely Gaussian data never allocate it.
	other []dist.Distribution
	// numOther counts live other slots, so the Gaussian fast path is a
	// single comparison.
	numOther int
}

// ColumnWindow is the sliding window of an exact aggregate query, with
// columnar (struct-of-arrays) storage: per schema column, contiguous
// kind/mean/variance/n arrays, plus per-tuple Prob/ProbN/Seq/Time columns.
// It is one ring with two eviction rules, fixed at construction by the
// statement's WINDOW clause:
//
//   - count (NewColumnWindow, WINDOW n ROWS): the ring holds the most
//     recent n tuples; the paper's throughput experiment (§V-C) runs on it;
//   - span (NewSpanColumnWindow, WINDOW n SECONDS): the ring holds the
//     tuples whose Time is within n of the newest one's and grows by
//     doubling when an arrival finds it full.
//
// Either way the Gaussian closed form is a branch-free scan over two
// contiguous float64 segments, and pushing copies field data out of the
// tuple — the window never retains the *Tuple (see the ownership contract in
// doc.go). Results are bit-identical to aggregating the same tuples as rows:
// the closed-form scan visits slots oldest-first with the same summation
// order as randvar.LinearGaussianUniform, and the fallback path materializes
// fields in that order for Aggregate.
type ColumnWindow struct {
	schema *Schema
	head   int // slot index of the oldest tuple
	count  int
	size   int   // ring capacity: the window size under the count rule
	span   int64 // > 0 selects the span rule

	prob  []float64
	probN []int
	seq   []uint64
	time  []int64
	cols  []winColumn
}

// spanInitialCap is the capacity a span window starts with. GROUP BY
// allocates one window per key, so it starts small and doubles on demand.
const spanInitialCap = 16

// NewColumnWindow returns a columnar window over schema holding the most
// recent size tuples.
func NewColumnWindow(schema *Schema, size int) (*ColumnWindow, error) {
	if size < 1 {
		return nil, fmt.Errorf("stream: count window size %d, need ≥ 1", size)
	}
	return newColumnWindow(schema, size, 0)
}

// NewSpanColumnWindow returns a columnar window over schema holding the
// tuples whose Time is within span of the most recently admitted tuple's.
func NewSpanColumnWindow(schema *Schema, span int64) (*ColumnWindow, error) {
	if span <= 0 {
		return nil, fmt.Errorf("stream: time window span %d, need > 0", span)
	}
	return newColumnWindow(schema, spanInitialCap, span)
}

func newColumnWindow(schema *Schema, size int, span int64) (*ColumnWindow, error) {
	if schema == nil {
		return nil, fmt.Errorf("stream: column window with nil schema")
	}
	w := &ColumnWindow{
		schema: schema,
		size:   size,
		span:   span,
		prob:   make([]float64, size),
		probN:  make([]int, size),
		seq:    make([]uint64, size),
		time:   make([]int64, size),
		cols:   make([]winColumn, schema.Arity()),
	}
	for i := range w.cols {
		w.cols[i] = winColumn{
			kind: make([]uint8, size),
			mean: make([]float64, size),
			varr: make([]float64, size),
			n:    make([]int, size),
		}
	}
	return w, nil
}

// Len returns the number of tuples currently in the window.
func (w *ColumnWindow) Len() int { return w.count }

// Full reports whether a count window has reached its size.
func (w *ColumnWindow) Full() bool { return w.count == w.size }

// Push adds t under the count rule, evicting the oldest tuple once the
// window is full. The tuple's field data is copied into the column arrays;
// the *Tuple itself is not retained. Span windows take tuples through Admit.
func (w *ColumnWindow) Push(t *Tuple) {
	var slot int
	if w.count < w.size {
		slot = w.head + w.count
		if slot >= w.size {
			slot -= w.size
		}
		w.count++
	} else {
		slot = w.head
		w.head++
		if w.head == w.size {
			w.head = 0
		}
	}
	w.store(slot, t)
}

// store copies t into ring slot slot, releasing what the slot held.
func (w *ColumnWindow) store(slot int, t *Tuple) {
	w.prob[slot] = t.Prob
	w.probN[slot] = t.ProbN
	w.seq[slot] = t.Seq
	w.time[slot] = t.Time
	for c := range w.cols {
		w.cols[c].set(slot, t.Fields[c])
	}
}

// Admit adds t under the eviction rule the window was built with and
// reports whether the window is now to be aggregated: a count window once it
// is full, a span window on every arrival. A span window rejects a tuple
// older than its newest one and is left untouched by the rejection.
func (w *ColumnWindow) Admit(t *Tuple) (bool, error) {
	if w.span == 0 {
		w.Push(t)
		return w.Full(), nil
	}
	if w.count > 0 {
		if newest := w.time[w.slot(w.count-1)]; t.Time < newest {
			return false, fmt.Errorf("stream: out-of-order tuple: time %d after %d", t.Time, newest)
		}
	}
	// Tuples with age strictly greater than the span are evicted; a tuple
	// exactly span old is still in the window. Nothing overwrites an evicted
	// slot until the ring comes round to it, so eviction itself releases the
	// slot's distribution — otherwise the Gaussian fast path stays off after
	// the last histogram has left.
	for cutoff := t.Time - w.span; w.count > 0 && w.time[w.head] < cutoff; w.count-- {
		for c := range w.cols {
			w.cols[c].release(w.head)
		}
		w.head++
		if w.head == w.size {
			w.head = 0
		}
	}
	w.append(t)
	return true, nil
}

// slot returns the ring slot of the k-th oldest tuple.
func (w *ColumnWindow) slot(k int) int {
	i := w.head + k
	if i >= w.size {
		i -= w.size
	}
	return i
}

// append stores t behind the newest tuple without evicting, doubling the
// ring first when it is full.
func (w *ColumnWindow) append(t *Tuple) {
	if w.count == w.size {
		w.grow()
	}
	w.count++
	w.store(w.slot(w.count-1), t)
}

// grow doubles the ring, relinearising every column (head becomes 0).
func (w *ColumnWindow) grow() {
	size := 2 * w.size
	w.prob = regrow(w.prob, w.head, size)
	w.probN = regrow(w.probN, w.head, size)
	w.seq = regrow(w.seq, w.head, size)
	w.time = regrow(w.time, w.head, size)
	for c := range w.cols {
		col := &w.cols[c]
		col.kind = regrow(col.kind, w.head, size)
		col.mean = regrow(col.mean, w.head, size)
		col.varr = regrow(col.varr, w.head, size)
		col.n = regrow(col.n, w.head, size)
		if col.other != nil {
			col.other = regrow(col.other, w.head, size)
		}
	}
	w.head, w.size = 0, size
}

// regrow copies a full ring whose oldest slot is head into a new array of
// the given size, oldest-first from index 0.
func regrow[T any](ring []T, head, size int) []T {
	out := make([]T, size)
	n := copy(out, ring[head:])
	copy(out[n:], ring[:head])
	return out
}

// set stores field f into ring slot i, classifying it with the same type
// switch as randvar's gaussianOf so the closed-form applicability matches
// the row path exactly.
func (col *winColumn) set(i int, f randvar.Field) {
	col.release(i)
	switch d := f.Dist.(type) {
	case dist.Point:
		col.kind[i] = slotPoint
		col.mean[i] = d.V
		col.varr[i] = 0
	case dist.Normal:
		col.kind[i] = slotNormal
		col.mean[i] = d.Mu
		col.varr[i] = d.Sigma2
	default:
		col.kind[i] = slotOther
		col.mean[i] = 0
		col.varr[i] = 0
		if col.other == nil {
			col.other = make([]dist.Distribution, len(col.kind))
		}
		col.other[i] = f.Dist
		col.numOther++
	}
	col.n[i] = f.N
}

// release drops the distribution slot i retains, if any.
func (col *winColumn) release(i int) {
	if col.other != nil && col.other[i] != nil {
		col.other[i] = nil
		col.numOther--
	}
}

// field materializes ring slot i back into a randvar.Field, bit-identical
// to the field that was pushed.
func (col *winColumn) field(i int) randvar.Field {
	switch col.kind[i] {
	case slotPoint:
		return randvar.Field{Dist: dist.Point{V: col.mean[i]}, N: col.n[i]}
	case slotNormal:
		return randvar.Field{Dist: dist.Normal{Mu: col.mean[i], Sigma2: col.varr[i]}, N: col.n[i]}
	default:
		return randvar.Field{Dist: col.other[i], N: col.n[i]}
	}
}

// gaussian reports whether every live slot of the column is Point or
// Normal, i.e. the Avg/Sum closed form applies.
func (col *winColumn) gaussian() bool { return col.numOther == 0 }

// ColumnGaussian reports whether column c currently holds only Gaussian
// (Point/Normal) fields, making the closed-form scan applicable.
func (w *ColumnWindow) ColumnGaussian(c int) bool { return w.cols[c].gaussian() }

// LinearUniform computes Σ wt·Xᵢ over column c in the Gaussian closed form
// (Theorem: a uniform linear combination of independent Gaussians). The
// caller must have checked ColumnGaussian(c).
func (w *ColumnWindow) LinearUniform(c int, wt float64) (randvar.Field, error) {
	return randvar.GaussianResult(w.linearUniform(c, wt))
}

// linearUniform is the one closed-form kernel: it scans column c's mean and
// variance arrays oldest-first in the exact summation order of
// randvar.LinearGaussianUniform, so its moments are bit-identical to
// aggregating the same fields as rows.
//
// Each of the two loops is one dependency chain with as little around it as
// the compiler allows. A window-sized scan per tuple is most of a
// large-window query's cost, and a loop that needs the core's whole issue
// width runs 1.6× slower while the core's other hardware thread is busy,
// where a loop waiting on its own last result barely changes (DESIGN §11.1).
// So varr is re-sliced to len(mean), which drops the bounds check per slot,
// and the smallest positive sample size is a branch-free running minimum
// over n-1 as unsigned: every n ≤ 0 wraps to a value no positive n reaches.
func (w *ColumnWindow) linearUniform(c int, wt float64) (mu, sigma2 float64, n int) {
	col := &w.cols[c]
	least := ^uint(0)
	scan := func(lo, hi int) {
		mean, varr := col.mean[lo:hi], col.varr[lo:hi]
		varr = varr[:len(mean)]
		for i := range mean {
			mu += wt * mean[i]
			sigma2 += wt * wt * varr[i]
		}
		for _, fn := range col.n[lo:hi] {
			least = min(least, uint(fn)-1)
		}
	}
	if end := w.head + w.count; end <= w.size {
		scan(w.head, end)
	} else {
		scan(w.head, w.size)
		scan(0, end-w.size)
	}
	if least < math.MaxInt {
		n = int(least) + 1
	}
	return mu, sigma2, n
}

// LinearUniformMoments returns the closed-form Gaussian moments of
// Σ wts[j]·X over column cols[j] for every requested aggregate: one
// linearUniform scan per column. With struct-of-arrays storage the columns
// share no memory, so there is no walk to fuse. Callers must have checked
// ColumnGaussian for each requested column and must turn the moments into
// fields via randvar.GaussianResult(mu[j], sigma2[j], n[j]).
func (w *ColumnWindow) LinearUniformMoments(cols []int, wts []float64) (mu, sigma2 []float64, n []int) {
	mu = make([]float64, len(cols))
	sigma2 = make([]float64, len(cols))
	n = make([]int, len(cols))
	for j, c := range cols {
		mu[j], sigma2[j], n[j] = w.linearUniform(c, wts[j])
	}
	return mu, sigma2, n
}

// SameContents reports whether w and o hold the same tuple sequence under
// the same eviction rule: equal span, equal size for count windows, equal
// length, and the same tuple sequence numbers oldest-first. Engine sequence
// numbers identify ingested tuples uniquely, so equal sequences imply
// bit-identical window contents for windows fed from the same deterministic
// engine — the admission test the multi-query planner uses before aliasing
// two queries onto one shared window.
func (w *ColumnWindow) SameContents(o *ColumnWindow) bool {
	if w == nil || o == nil {
		return w == o
	}
	if w.span != o.span || (w.span == 0 && w.size != o.size) || w.count != o.count {
		return false
	}
	for k := 0; k < w.count; k++ {
		if w.seq[w.slot(k)] != o.seq[o.slot(k)] {
			return false
		}
	}
	return true
}

// CompileColumn adds column c's fields, oldest-first, to dst — the input of
// an aggregate that falls back to the Monte Carlo path. Point and Normal
// slots compile from the column arrays without materializing a field.
func (w *ColumnWindow) CompileColumn(dst *randvar.Column, c int) {
	col := &w.cols[c]
	add := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			switch col.kind[i] {
			case slotPoint:
				dst.AddPoint(col.mean[i], col.n[i])
			case slotNormal:
				dst.AddNormal(col.mean[i], col.varr[i], col.n[i])
			default:
				dst.Add(randvar.Field{Dist: col.other[i], N: col.n[i]})
			}
		}
	}
	if end := w.head + w.count; end <= w.size {
		add(w.head, end)
	} else {
		add(w.head, w.size)
		add(0, end-w.size)
	}
}

// Tuples materializes the window contents oldest-first as fresh tuples
// (the compatibility path for snapshots and tests). The returned tuples
// are owned by the caller; non-Gaussian Dist pointers are shared with the
// window but immutable.
func (w *ColumnWindow) Tuples() []*Tuple {
	return w.AppendTuples(nil)
}

// AppendTuples appends materialized window contents oldest-first to dst.
func (w *ColumnWindow) AppendTuples(dst []*Tuple) []*Tuple {
	for i := 0; i < w.count; i++ {
		slot := w.slot(i)
		fields := make([]randvar.Field, len(w.cols))
		for c := range w.cols {
			fields[c] = w.cols[c].field(slot)
		}
		dst = append(dst, &Tuple{
			Schema: w.schema,
			Fields: fields,
			Prob:   w.prob[slot],
			ProbN:  w.probN[slot],
			Seq:    w.seq[slot],
			Time:   w.time[slot],
		})
	}
	return dst
}

// RestoreTuples replaces the window contents with tuples (oldest-first),
// e.g. when a checkpointed window is reloaded during crash recovery. The
// contents are restored exactly as captured — no eviction is applied — so a
// count window rejects more tuples than it holds, and a span window, which
// takes any number, rejects tuples not in non-decreasing Time order. The
// restored ring starts at head 0 wherever the captured one did; every scan
// runs oldest-first from head, so no result depends on where head is.
func (w *ColumnWindow) RestoreTuples(tuples []*Tuple) error {
	if w.span == 0 && len(tuples) > w.size {
		return fmt.Errorf("stream: restoring %d tuples into count window of %d",
			len(tuples), w.size)
	}
	for i, t := range tuples {
		if len(t.Fields) != len(w.cols) {
			return fmt.Errorf("stream: restoring tuple with %d fields into window of arity %d",
				len(t.Fields), len(w.cols))
		}
		if w.span > 0 && i > 0 && t.Time < tuples[i-1].Time {
			return fmt.Errorf("stream: restoring out-of-order tuples: time %d after %d",
				t.Time, tuples[i-1].Time)
		}
	}
	w.reset()
	for _, t := range tuples {
		w.append(t)
	}
	return nil
}

// reset empties the window, releasing retained distributions.
func (w *ColumnWindow) reset() {
	for c := range w.cols {
		col := &w.cols[c]
		if col.other != nil {
			for i := range col.other {
				col.other[i] = nil
			}
		}
		col.numOther = 0
	}
	w.head = 0
	w.count = 0
}

// ColumnWindowState is the serializable, linearized (oldest-first) form of
// a ColumnWindow — the columnar snapshot exchanged with the checkpoint
// layer. All slices have the same length (the live tuple count); Other
// maps slot index → distribution for slots whose Kind is slotOther.
type ColumnWindowState struct {
	Prob  []float64
	ProbN []int
	Seq   []uint64
	Time  []int64
	Cols  []ColumnState
}

// ColumnState is one column of a ColumnWindowState.
type ColumnState struct {
	Kind  []uint8
	Mean  []float64
	Var   []float64
	N     []int
	Other map[int]dist.Distribution
}

// State captures the window contents as a linearized columnar snapshot.
func (w *ColumnWindow) State() *ColumnWindowState {
	st := &ColumnWindowState{
		Prob:  make([]float64, 0, w.count),
		ProbN: make([]int, 0, w.count),
		Seq:   make([]uint64, 0, w.count),
		Time:  make([]int64, 0, w.count),
		Cols:  make([]ColumnState, len(w.cols)),
	}
	for c := range st.Cols {
		st.Cols[c] = ColumnState{
			Kind: make([]uint8, 0, w.count),
			Mean: make([]float64, 0, w.count),
			Var:  make([]float64, 0, w.count),
			N:    make([]int, 0, w.count),
		}
	}
	for i := 0; i < w.count; i++ {
		slot := w.slot(i)
		st.Prob = append(st.Prob, w.prob[slot])
		st.ProbN = append(st.ProbN, w.probN[slot])
		st.Seq = append(st.Seq, w.seq[slot])
		st.Time = append(st.Time, w.time[slot])
		for c := range w.cols {
			col := &w.cols[c]
			cs := &st.Cols[c]
			cs.Kind = append(cs.Kind, col.kind[slot])
			cs.Mean = append(cs.Mean, col.mean[slot])
			cs.Var = append(cs.Var, col.varr[slot])
			cs.N = append(cs.N, col.n[slot])
			if col.kind[slot] == slotOther {
				if cs.Other == nil {
					cs.Other = make(map[int]dist.Distribution)
				}
				cs.Other[i] = col.other[slot]
			}
		}
	}
	return st
}

// Len returns the number of tuples in the snapshot.
func (st *ColumnWindowState) Len() int { return len(st.Prob) }

// Validate checks structural consistency of the snapshot against a window
// of the given arity.
func (st *ColumnWindowState) Validate(arity int) error {
	n := len(st.Prob)
	if len(st.ProbN) != n || len(st.Seq) != n || len(st.Time) != n {
		return fmt.Errorf("stream: columnar snapshot with ragged tuple columns (%d/%d/%d/%d)",
			len(st.Prob), len(st.ProbN), len(st.Seq), len(st.Time))
	}
	if len(st.Cols) != arity {
		return fmt.Errorf("stream: columnar snapshot arity %d, schema wants %d", len(st.Cols), arity)
	}
	for i, p := range st.Prob {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("stream: columnar snapshot tuple %d probability %v outside [0,1]", i, p)
		}
		if st.ProbN[i] < 0 {
			return fmt.Errorf("stream: columnar snapshot tuple %d ProbN %d negative", i, st.ProbN[i])
		}
	}
	for c, cs := range st.Cols {
		if len(cs.Kind) != n || len(cs.Mean) != n || len(cs.Var) != n || len(cs.N) != n {
			return fmt.Errorf("stream: columnar snapshot column %d ragged", c)
		}
		for i, k := range cs.Kind {
			switch k {
			case slotPoint, slotNormal:
			case slotOther:
				if cs.Other[i] == nil {
					return fmt.Errorf("stream: columnar snapshot column %d slot %d missing distribution", c, i)
				}
			default:
				return fmt.Errorf("stream: columnar snapshot column %d slot %d has unknown kind %d", c, i, k)
			}
			if cs.N[i] < 0 {
				return fmt.Errorf("stream: columnar snapshot column %d slot %d sample size %d negative", c, i, cs.N[i])
			}
		}
	}
	return nil
}

// Tuples materializes the snapshot as row tuples over schema, validating
// each — composed with RestoreTuples, the way a columnar checkpoint restores
// into a window.
func (st *ColumnWindowState) Tuples(schema *Schema) ([]*Tuple, error) {
	if err := st.Validate(schema.Arity()); err != nil {
		return nil, err
	}
	out := make([]*Tuple, st.Len())
	for i := range out {
		fields := make([]randvar.Field, len(st.Cols))
		for c, cs := range st.Cols {
			switch cs.Kind[i] {
			case slotPoint:
				fields[c] = randvar.Field{Dist: dist.Point{V: cs.Mean[i]}, N: cs.N[i]}
			case slotNormal:
				fields[c] = randvar.Field{Dist: dist.Normal{Mu: cs.Mean[i], Sigma2: cs.Var[i]}, N: cs.N[i]}
			default:
				fields[c] = randvar.Field{Dist: cs.Other[i], N: cs.N[i]}
			}
		}
		t := &Tuple{
			Schema: schema,
			Fields: fields,
			Prob:   st.Prob[i],
			ProbN:  st.ProbN[i],
			Seq:    st.Seq[i],
			Time:   st.Time[i],
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
