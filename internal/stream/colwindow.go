package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/codec"
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

// ColumnWindow is the sliding window of every materialized query — each
// exact aggregate and each side of a join — with columnar (struct-of-arrays)
// storage: per schema column, contiguous kind/mean/variance/n arrays, plus
// per-tuple Prob/ProbN/Seq/Time columns.
// It is one ring with two eviction rules, fixed at construction by the
// statement's WINDOW clause:
//
//   - count (NewColumnWindow, WINDOW n ROWS): the ring holds the most
//     recent n tuples; the paper's throughput experiment (§V-C) runs on it;
//   - span (NewSpanColumnWindow, WINDOW n SECONDS): the ring holds the
//     tuples whose Time is within n of the newest one's.
//
// Either ring starts at min(n, 16) slots (GROUP BY makes one window per
// key) and doubles when an arrival finds it full; a count ring stops at n.
//
// Either way the Gaussian closed form is a branch-free scan over two
// contiguous float64 segments, and pushing copies field data out of the
// tuple — the window never retains the *Tuple (see the ownership contract in
// doc.go). Results are bit-identical to aggregating the same tuples as rows:
// the closed-form scan visits slots oldest-first with the same summation
// order as randvar.LinearGaussian, and the fallback path materializes
// fields in that order for Aggregate. A join probes a side's window
// through Probe.
type ColumnWindow struct {
	head  int // slot index of the oldest tuple
	count int
	size  int   // ring capacity
	limit int   // the count rule's n, which size grows to; math.MaxInt under the span rule
	span  int64 // > 0 selects the span rule

	prob  []float64
	probN []int
	seq   []uint64
	time  []int64
	cols  []winColumn
}

// initialCap is the most slots a window starts with. GROUP BY allocates
// one window per key, so it starts small and doubles on demand.
const initialCap = 16

// NewColumnWindow returns a columnar window over schema holding the most
// recent size tuples.
func NewColumnWindow(schema *Schema, size int) (*ColumnWindow, error) {
	if size < 1 {
		return nil, fmt.Errorf("stream: count window size %d, need ≥ 1", size)
	}
	if schema == nil {
		return nil, errNilSchema
	}
	return newColumnWindow(schema.Arity(), min(size, initialCap), size, 0), nil
}

// NewSpanColumnWindow returns a columnar window over schema holding the
// tuples whose Time is within span of the most recently admitted tuple's.
func NewSpanColumnWindow(schema *Schema, span int64) (*ColumnWindow, error) {
	if span <= 0 {
		return nil, fmt.Errorf("stream: time window span %d, need > 0", span)
	}
	if schema == nil {
		return nil, errNilSchema
	}
	return newColumnWindow(schema.Arity(), initialCap, math.MaxInt, span), nil
}

var errNilSchema = errors.New("stream: column window with nil schema")

func newColumnWindow(arity, size, limit int, span int64) *ColumnWindow {
	w := &ColumnWindow{
		size:  size,
		limit: limit,
		span:  span,
		prob:  make([]float64, size),
		probN: make([]int, size),
		seq:   make([]uint64, size),
		time:  make([]int64, size),
		cols:  make([]winColumn, arity),
	}
	for i := range w.cols {
		w.cols[i] = winColumn{
			kind: make([]uint8, size),
			mean: make([]float64, size),
			varr: make([]float64, size),
			n:    make([]int, size),
		}
	}
	return w
}

// Len returns the number of tuples currently in the window.
func (w *ColumnWindow) Len() int { return w.count }

// Full reports whether a count window has reached its size.
func (w *ColumnWindow) Full() bool { return w.count == w.limit }

// Push adds t under the count rule, evicting the oldest tuple once the
// window is full. The tuple's field data is copied into the column arrays;
// the *Tuple itself is not retained. Span windows take tuples through Admit.
func (w *ColumnWindow) Push(t *Tuple) {
	if w.count < w.limit {
		w.append(t)
		return
	}
	// Full: the ring has grown to exactly limit slots.
	slot := w.head
	w.head++
	if w.head == w.size {
		w.head = 0
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

// append stores t behind the newest tuple without evicting, growing the
// ring first when it is full.
func (w *ColumnWindow) append(t *Tuple) {
	if w.count == w.size {
		w.grow()
	}
	w.count++
	w.store(w.slot(w.count-1), t)
}

// grow doubles the ring, up to limit slots, relinearising every column
// (head becomes 0).
func (w *ColumnWindow) grow() {
	size := min(2*w.size, w.limit)
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

// set stores field f into ring slot i, classifying it with gaussianParts.
func (col *winColumn) set(i int, f randvar.Field) {
	col.release(i)
	col.mean[i], col.varr[i], col.kind[i] = gaussianParts(f.Dist)
	if col.kind[i] == slotOther {
		if col.other == nil {
			col.other = make([]dist.Distribution, len(col.kind))
		}
		col.other[i] = f.Dist
		col.numOther++
	}
	col.n[i] = f.N
}

// gaussianParts classifies d with the same type switch as randvar's
// gaussianOf, so the closed form applies to exactly the fields the row path
// takes it for: a Point is its value and variance 0, a Normal its moments,
// anything else slotOther with zero moments.
func gaussianParts(d dist.Distribution) (mean, varr float64, kind uint8) {
	switch d := d.(type) {
	case dist.Point:
		return d.V, 0, slotPoint
	case dist.Normal:
		return d.Mu, d.Sigma2, slotNormal
	}
	return 0, 0, slotOther
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
	mu, sigma2, n, _ := w.LinearUniformAhead(c, wt, nil)
	return randvar.GaussianResult(mu[0], sigma2[0], n[0])
}

// AheadWidth is the most windows one closed-form scan sums side by side:
// eight lanes of two sums fill four YMM accumulators, so the AVX2 kernel
// answers a chunk of eight tuples in one pass (DESIGN §11.1).
const AheadWidth = 8

// LinearUniformAhead is the one closed-form kernel: the Gaussian moments of
// Σ wt·Xᵢ over column c, and the smallest positive sample size (0 if none),
// of the window after each push of ahead — lane j after ahead[:j+1] — or,
// with no look-ahead, in lane 0 of the window as it stands. Each lane adds
// its window's slots oldest-first, as randvar.LinearGaussian adds rows, so
// every bit matches pushing and aggregating; lanes past the look-ahead hold
// no meaning. ok is false, and nothing is scanned, for a field that is not
// Point or Normal, a look-ahead longer than AheadWidth, or a span window
// with a look-ahead.
func (w *ColumnWindow) LinearUniformAhead(c int, wt float64, ahead []*Tuple) (mu, sigma2 [AheadWidth]float64, n [AheadWidth]int, ok bool) {
	col := &w.cols[c]
	if !col.gaussian() || len(ahead) > AheadWidth || (w.span > 0 && len(ahead) > 0) {
		return mu, sigma2, n, false
	}
	for _, t := range ahead {
		if _, _, kind := gaussianParts(t.Fields[c].Dist); kind == slotOther {
			return mu, sigma2, n, false
		}
	}
	// Lane j sums virtual indices [lo[j], hi[j]), both rising with j: k <
	// w.count is the k-th oldest slot, w.count+j is ahead[j]. least is a
	// running minimum of n-1 as unsigned, so every n ≤ 0 wraps out of it.
	lanes := max(1, len(ahead))
	var lo, hi [AheadWidth]int
	var least [AheadWidth]uint
	for j := 0; j < lanes; j++ {
		hi[j] = w.count + j + min(1, len(ahead))
		lo[j], least[j] = max(0, hi[j]-w.limit), ^uint(0)
	}
	add := func(k int) {
		m, v, fn := 0.0, 0.0, 0
		if k < w.count {
			s := w.slot(k)
			m, v, fn = col.mean[s], col.varr[s], col.n[s]
		} else {
			f := ahead[k-w.count].Fields[c]
			m, v, _ = gaussianParts(f.Dist)
			fn = f.N
		}
		for j := 0; j < lanes; j++ {
			if lo[j] <= k && k < hi[j] {
				mu[j] += wt * m
				sigma2[j] += wt * wt * v
				least[j] = min(least[j], uint(fn)-1)
			}
		}
	}
	// Every lane holds the ring slots [mid, end), nearly all of a large
	// window; only the few slots some lanes lack go through add.
	mid := lo[lanes-1]
	end := max(mid, min(hi[0], w.count))
	for k := lo[0]; k < mid; k++ {
		add(k)
	}
	shared := ^uint(0)
	for k := mid; k < end; {
		p := w.slot(k)
		q := p + min(end-k, w.size-p)
		shared = scan8(&mu, &sigma2, shared, wt, col.mean[p:q], col.varr[p:q], col.n[p:q], lanes)
		k += q - p
	}
	for k := end; k < hi[lanes-1]; k++ {
		add(k)
	}
	for j := 0; j < lanes; j++ {
		if l := min(least[j], shared); l < math.MaxInt {
			n[j] = int(l) + 1
		}
	}
	return mu, sigma2, n, true
}

// LinearUniformMoments returns the closed-form Gaussian moments of
// Σ wts[j]·X over column cols[j] for every requested aggregate: one
// LinearUniformAhead scan per column, with no look-ahead. Callers must have
// checked ColumnGaussian for each requested column and must turn the
// moments into fields via randvar.GaussianResult(mu[j], sigma2[j], n[j]).
func (w *ColumnWindow) LinearUniformMoments(cols []int, wts []float64) (mu, sigma2 []float64, n []int) {
	mu = make([]float64, len(cols))
	sigma2 = make([]float64, len(cols))
	n = make([]int, len(cols))
	for j, c := range cols {
		m, s, k, _ := w.LinearUniformAhead(c, wts[j], nil)
		mu[j], sigma2[j], n[j] = m[0], s[0], k[0]
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
	if w.span != o.span || w.limit != o.limit || w.count != o.count {
		return false
	}
	for k := 0; k < w.count; k++ {
		if w.seq[w.slot(k)] != o.seq[o.slot(k)] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the window: pushing either one
// leaves the other as it was. The copy shares the read-only distributions
// of slots that are neither Point nor Normal, as the tuples they came from
// do.
func (w *ColumnWindow) Clone() *ColumnWindow {
	c := *w
	c.prob, c.probN = slices.Clone(w.prob), slices.Clone(w.probN)
	c.seq, c.time = slices.Clone(w.seq), slices.Clone(w.time)
	c.cols = make([]winColumn, len(w.cols))
	for i, col := range w.cols {
		c.cols[i] = winColumn{
			kind:     slices.Clone(col.kind),
			mean:     slices.Clone(col.mean),
			varr:     slices.Clone(col.varr),
			n:        slices.Clone(col.n),
			other:    slices.Clone(col.other),
			numOther: col.numOther,
		}
	}
	return &c
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

// Probe calls fn, oldest first, for each tuple whose column c equals key:
// the column's mean, read from the column arrays for Point and Normal
// slots and from Mean() for any other. fn gets a new tuple whose Fields are
// pre, the matched tuple's fields and post, in that order, with the matched
// tuple's Prob, ProbN, Seq and Time and a nil Schema; it is fn's to
// complete and keep. A slot that does not match is read for its key alone.
// Probe stops at the first error fn returns and returns it.
func (w *ColumnWindow) Probe(c int, key float64, pre, post []randvar.Field, fn func(*Tuple) error) error {
	col := &w.cols[c]
	for k := 0; k < w.count; k++ {
		s := w.slot(k)
		v := col.mean[s]
		if col.kind[s] == slotOther {
			v = col.other[s].Mean()
		}
		if v != key {
			continue
		}
		fields := make([]randvar.Field, 0, len(pre)+len(w.cols)+len(post))
		fields = append(fields, pre...)
		for i := range w.cols {
			fields = append(fields, w.cols[i].field(s))
		}
		t := &Tuple{
			Fields: append(fields, post...),
			Prob:   w.prob[s],
			ProbN:  w.probN[s],
			Seq:    w.seq[s],
			Time:   w.time[s],
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// RestoreTuples replaces the window contents with tuples (oldest-first),
// e.g. when a checkpointed window is reloaded during crash recovery. The
// contents are restored exactly as captured — no eviction is applied — so a
// count window rejects more tuples than it holds, and a span window, which
// takes any number, rejects tuples not in non-decreasing Time order. The
// restored ring starts at head 0 wherever the captured one did; every scan
// runs oldest-first from head, so no result depends on where head is.
func (w *ColumnWindow) RestoreTuples(tuples []*Tuple) error {
	if len(tuples) > w.limit {
		return fmt.Errorf("stream: restoring %d tuples into count window of %d",
			len(tuples), w.limit)
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
// a ColumnWindow: the one form a checkpoint writes every window in. All
// slices have the same length (the live tuple count); Other maps slot
// index → distribution for slots whose Kind is slotOther. An empty window
// omits its empty arrays, which decode as nil and validate as length 0.
type ColumnWindowState struct {
	Prob  []float64     `json:"prob,omitempty"`
	ProbN []int         `json:"prob_n,omitempty"`
	Seq   []uint64      `json:"seq,omitempty"`
	Time  []int64       `json:"time,omitempty"`
	Cols  []ColumnState `json:"cols,omitempty"`
}

// ColumnState is one column of a ColumnWindowState.
type ColumnState struct {
	Kind  SlotKinds `json:"kind"`
	Mean  []float64 `json:"mean,omitempty"`
	Var   []float64 `json:"var,omitempty"`
	N     []int     `json:"n,omitempty"`
	Other SlotDists `json:"other,omitempty"`
}

// SlotKinds are a column's slot kinds, written in JSON as ints rather than
// base64.
type SlotKinds []uint8

// SlotDists maps slot index → distribution for a column's slots whose kind
// is slotOther, written in JSON as decimal slot index → codec JSON.
type SlotDists map[int]dist.Distribution

// MarshalJSON writes the kinds as an array of ints.
func (k SlotKinds) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 2*len(k)+2)
	out = append(out, '[')
	for i, v := range k {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(out, uint64(v), 10)
	}
	return append(out, ']'), nil
}

// UnmarshalJSON reads an array of ints, refusing one outside a byte.
func (k *SlotKinds) UnmarshalJSON(data []byte) error {
	var ints []int
	if err := json.Unmarshal(data, &ints); err != nil {
		return err
	}
	*k = make(SlotKinds, len(ints))
	for i, v := range ints {
		if v < 0 || v > math.MaxUint8 {
			return fmt.Errorf("stream: columnar snapshot slot %d kind %d out of range", i, v)
		}
		(*k)[i] = uint8(v)
	}
	return nil
}

// MarshalJSON writes each distribution through codec.
func (o SlotDists) MarshalJSON() ([]byte, error) {
	enc := make(map[int]json.RawMessage, len(o))
	for slot, d := range o {
		raw, err := codec.EncodeDistribution(d)
		if err != nil {
			return nil, err
		}
		enc[slot] = raw
	}
	return json.Marshal(enc)
}

// UnmarshalJSON reads what MarshalJSON writes.
func (o *SlotDists) UnmarshalJSON(data []byte) error {
	var enc map[int]json.RawMessage
	if err := json.Unmarshal(data, &enc); err != nil {
		return err
	}
	*o = make(SlotDists, len(enc))
	for slot, raw := range enc {
		d, err := codec.DecodeDistribution(raw)
		if err != nil {
			return err
		}
		(*o)[slot] = d
	}
	return nil
}

// TuplesState is the snapshot of a window holding tuples, oldest-first:
// how a window checkpointed as rows comes back in the columnar form. It is
// nil, an empty window, when there are no tuples, and an error when the
// tuples differ in arity.
func TuplesState(tuples []*Tuple) (*ColumnWindowState, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	w := newColumnWindow(len(tuples[0].Fields), len(tuples), len(tuples), 0)
	if err := w.RestoreTuples(tuples); err != nil {
		return nil, err
	}
	return w.State(), nil
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
					cs.Other = make(SlotDists)
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
