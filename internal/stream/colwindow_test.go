package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
)

// mixedTuple builds a distinct, fully-identifiable tuple: column 0 carries
// the index as a Point, column 1 cycles through Point/Normal/Histogram so
// the "other" slot recycling is exercised through eviction.
func mixedTuple(t *testing.T, s *Schema, i int) *Tuple {
	t.Helper()
	v := float64(i)
	var f randvar.Field
	switch i % 3 {
	case 0:
		f = randvar.Field{Dist: dist.Point{V: v + 0.5}, N: i % 7}
	case 1:
		nd, err := dist.NewNormal(v, 1+float64(i%5))
		if err != nil {
			t.Fatal(err)
		}
		f = randvar.Field{Dist: nd, N: 10 + i%7}
	default:
		h, err := dist.NewHistogram([]float64{v, v + 1, v + 2}, []float64{0.25, 0.75})
		if err != nil {
			t.Fatal(err)
		}
		f = randvar.Field{Dist: h, N: 0}
	}
	return &Tuple{
		Schema: s,
		Fields: []randvar.Field{randvar.Det(v), f},
		Prob:   1 - 1/(v+2),
		ProbN:  i % 11,
		Seq:    uint64(i + 1),
		Time:   int64(1_700_000_000 + i),
	}
}

// contents materializes w's tuples oldest-first through its state.
func contents(t *testing.T, w *ColumnWindow, s *Schema) []*Tuple {
	t.Helper()
	tuples, err := w.State().Tuples(s)
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

func tuplesEqual(a, b *Tuple) bool {
	return a.Prob == b.Prob && a.ProbN == b.ProbN && a.Seq == b.Seq &&
		a.Time == b.Time && reflect.DeepEqual(a.Fields, b.Fields)
}

// TestColumnWindowAliasing pushes 10k+ distinct tuples through a small ring
// and verifies — for every value, at every checkpoint — that the window
// holds exactly the most recent tuples with no aliasing between slots. The
// ring starts at initialCap slots and grows to size, so the checks include
// both sides of every doubling.
func TestColumnWindowAliasing(t *testing.T) {
	s := testSchema(t)
	const size, total = 257, 10_240
	w, err := NewColumnWindow(s, size)
	if err != nil {
		t.Fatal(err)
	}
	pushed := make([]*Tuple, 0, total)
	for i := 0; i < total; i++ {
		tp := mixedTuple(t, s, i)
		pushed = append(pushed, tp)
		w.Push(tp)
		// Check at a stride plus the interesting boundaries; each check
		// verifies every live value.
		if i%997 != 0 && i != size-1 && i != size && i != total-1 && i&(i-1) != 0 && (i+1)&i != 0 {
			continue
		}
		lo := 0
		if i+1 > size {
			lo = i + 1 - size
		}
		got := contents(t, w, s)
		if len(got) != i+1-lo {
			t.Fatalf("after %d pushes: len = %d, want %d", i+1, len(got), i+1-lo)
		}
		for j, g := range got {
			if want := pushed[lo+j]; !tuplesEqual(g, want) {
				t.Fatalf("after %d pushes: tuple %d = %+v, want %+v", i+1, j, g, want)
			}
		}
	}
	if !w.Full() || w.Len() != size || w.size != size {
		t.Fatalf("Full/Len/ring = %v/%d/%d", w.Full(), w.Len(), w.size)
	}

	// The same check across ring growth: a span window whose tuples arrive
	// faster than they age out doubles several times, and every doubling
	// moves every live value. Holding every pushed tuple and comparing all of
	// them catches a column left behind or copied from the wrong offset.
	const span = 700
	sw, err := NewSpanColumnWindow(s, span)
	if err != nil {
		t.Fatal(err)
	}
	lo := 0
	for i, tp := range pushed {
		if _, err := sw.Admit(tp); err != nil {
			t.Fatal(err)
		}
		for pushed[lo].Time < tp.Time-span {
			lo++
		}
		// Check on both sides of every doubling on the way up, then at a
		// stride.
		if n := i + 1 - lo; n&(n-1) != 0 && (n-1)&(n-2) != 0 && i%997 != 0 {
			continue
		}
		got := contents(t, sw, s)
		if len(got) != i+1-lo {
			t.Fatalf("span, after %d pushes: len = %d, want %d", i+1, len(got), i+1-lo)
		}
		for j, g := range got {
			if want := pushed[lo+j]; !tuplesEqual(g, want) {
				t.Fatalf("span, after %d pushes: tuple %d = %+v, want %+v", i+1, j, g, want)
			}
		}
	}
	if sw.Len() != span+1 {
		t.Fatalf("span window holds %d tuples, want %d", sw.Len(), span+1)
	}
}

// rowModel is the reference a ColumnWindow is compared against: the live
// tuples as a plain slice, evicted by the same two rules.
type rowModel struct {
	size int   // count rule when > 0
	span int64 // span rule otherwise
	rows []*Tuple
}

func (m *rowModel) push(tp *Tuple) (emit bool, ok bool) {
	if m.size > 0 {
		m.rows = append(m.rows, tp)
		m.rows = m.rows[max(0, len(m.rows)-m.size):]
		return len(m.rows) == m.size, true
	}
	if n := len(m.rows); n > 0 && tp.Time < m.rows[n-1].Time {
		return false, false
	}
	m.rows = append(m.rows, tp)
	for m.rows[0].Time < tp.Time-m.span {
		m.rows = m.rows[1:]
	}
	return true, true
}

func (m *rowModel) column(c int) []randvar.Field {
	out := make([]randvar.Field, len(m.rows))
	for i, tp := range m.rows {
		out[i] = tp.Fields[c]
	}
	return out
}

// TestSpanWindowModel drives a span window with random arrival times — equal
// timestamps, small steps, gaps that empty it, out-of-order arrivals — past
// several doublings and demands, after every push, the contents of the slice
// model; a rejected push must leave the window exactly as it was.
func TestSpanWindowModel(t *testing.T) {
	s := testSchema(t)
	const span = 150
	w, err := NewSpanColumnWindow(s, span)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpanColumnWindow(s, 0); err == nil {
		t.Error("span 0: want error")
	}
	model := &rowModel{span: span}
	rng := dist.NewRand(9)
	now, maxLen, rejected := int64(1000), 0, 0
	for i := 0; i < 20_000; i++ {
		tp := mixedTuple(t, s, i)
		switch r := rng.Uint64() % 1000; {
		case r < 550: // same timestamp: the window only grows
		case r < 980:
			now += int64(1 + rng.Uint64()%3)
		case r < 990:
			now += span // the previous newest is exactly span old and stays
		case r < 994:
			now += span + 1 + int64(rng.Uint64()%50) // everything leaves
		}
		tp.Time = now
		if rng.Uint64()%40 == 0 {
			tp.Time = now - 1 - int64(rng.Uint64()%5)
		}
		before := w.State()
		emit, err := w.Admit(tp)
		_, ok := model.push(tp)
		if ok != (err == nil) {
			t.Fatalf("push %d (time %d): window err %v, model accepted=%v", i, tp.Time, err, ok)
		}
		if err != nil {
			rejected++
			if want := fmt.Sprintf("stream: out-of-order tuple: time %d after %d", tp.Time, model.rows[len(model.rows)-1].Time); err.Error() != want {
				t.Fatalf("push %d: error %q, want %q", i, err, want)
			}
			if !reflect.DeepEqual(w.State(), before) {
				t.Fatalf("push %d: rejected push changed the window", i)
			}
			continue
		}
		if !emit {
			t.Fatalf("push %d: span window did not emit", i)
		}
		got := contents(t, w, s)
		if len(got) != len(model.rows) || w.Len() != len(model.rows) {
			t.Fatalf("push %d: len = %d/%d, model %d", i, len(got), w.Len(), len(model.rows))
		}
		others := 0
		for j, g := range got {
			if !tuplesEqual(g, model.rows[j]) {
				t.Fatalf("push %d: tuple %d = %+v, want %+v", i, j, g, model.rows[j])
			}
			if _, isHist := g.Fields[1].Dist.(*dist.Histogram); isHist {
				others++
			}
		}
		// An evicted histogram must release its slot, or the closed form
		// stays off for a window that holds only Gaussians.
		if w.ColumnGaussian(1) != (others == 0) {
			t.Fatalf("push %d: ColumnGaussian = %v with %d histograms live", i, w.ColumnGaussian(1), others)
		}
		maxLen = max(maxLen, len(got))
	}
	if maxLen < 8*initialCap || rejected < 100 {
		t.Fatalf("run too tame: longest window %d, %d rejected pushes", maxLen, rejected)
	}

	// A checkpointed span window restores past its initial capacity, keeps
	// evolving like the original, and fails closed on non-monotone times.
	tuples := contents(t, w, s)
	w2, _ := NewSpanColumnWindow(s, span)
	if err := w2.RestoreTuples(tuples); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w2.State(), w.State()) {
		t.Fatal("restored span window differs")
	}
	for i := 0; i < 200; i++ {
		tp := mixedTuple(t, s, 50_000+i)
		tp.Time = now + int64(i/3)
		w.Admit(tp)
		w2.Admit(tp)
	}
	if !reflect.DeepEqual(w2.State(), w.State()) || !w.SameContents(w2) {
		t.Fatal("span windows diverged after restore")
	}
	tuples[len(tuples)/2].Time = tuples[0].Time - 1
	if err := w2.RestoreTuples(tuples); err == nil {
		t.Error("restore of non-monotone times: want error")
	}
	// Same tuples, different rule: never the same contents.
	cw, _ := NewColumnWindow(s, w.Len())
	for _, tp := range contents(t, w, s) {
		cw.Push(tp)
	}
	if cw.SameContents(w) || w.SameContents(cw) {
		t.Error("a span window compares equal to a count window")
	}
}

// TestAggregateColumnEquivalence checks AggregateColumn over a ColumnWindow
// against Aggregate over the same tuples held as rows, after every push:
// count and span eviction, all-Gaussian and mixed columns, one window and one
// window per group key, and every aggregate kind over both probabilistic
// columns drawn from one evaluator — demanding bit-identical results,
// identical errors and identical RNG consumption.
func TestAggregateColumnEquivalence(t *testing.T) {
	s, err := NewSchema("s",
		Column{Name: "id"},
		Column{Name: "speed", Probabilistic: true},
		Column{Name: "load", Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	two := testSchema(t) // the helpers build (id, speed); load is appended below
	for _, span := range []int64{0, 12} {
		for _, gaussianOnly := range []bool{true, false} {
			for _, groups := range []int{1, 3} {
				name := fmt.Sprintf("span=%d/gaussian=%v/groups=%d", span, gaussianOnly, groups)
				t.Run(name, func(t *testing.T) {
					const size = 16
					wins := make([]*ColumnWindow, groups)
					models := make([]*rowModel, groups)
					for g := range wins {
						if span > 0 {
							wins[g], err = NewSpanColumnWindow(s, span)
							models[g] = &rowModel{span: span}
						} else {
							wins[g], err = NewColumnWindow(s, size)
							models[g] = &rowModel{size: size}
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					eRow := randvar.NewEvaluator(dist.NewRand(42))
					eCol := randvar.NewEvaluator(dist.NewRand(42))
					eRow.Values, eCol.Values = 24, 24
					var scratch []randvar.Field
					emitted := 0
					for i := 0; i < 400; i++ {
						tp := mixedTuple(t, two, i)
						if gaussianOnly {
							tp = speedTuple(t, two, float64(i), 3+float64(i%9), 0.5+float64(i%4), 10+i%5)
						}
						nd, err := dist.NewNormal(float64(i%13), 1+float64(i%3))
						if err != nil {
							t.Fatal(err)
						}
						tp.Schema = s
						tp.Fields = append(tp.Fields, randvar.Field{Dist: nd, N: 4 + i%6})
						// Bursts of equal times, then a gap that evicts many.
						tp.Time = int64(i/4 + i/50*9)
						g := i % groups
						emit, err := wins[g].Admit(tp)
						if err != nil {
							t.Fatal(err)
						}
						cp := *tp
						cp.Fields = append([]randvar.Field(nil), tp.Fields...)
						if mEmit, _ := models[g].push(&cp); mEmit != emit {
							t.Fatalf("push %d: emit %v, model %v", i, emit, mEmit)
						}
						if !emit {
							continue
						}
						emitted++
						for _, c := range []int{1, 2} {
							for _, kind := range []AggKind{Avg, Sum, Count, Min, Max} {
								want, werr := Aggregate(eRow, kind, models[g].column(c))
								got, gerr := AggregateColumn(eCol, kind, wins[g], c, &scratch)
								if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
									t.Fatalf("push %d %v(col %d): error mismatch: row %v, col %v", i, kind, c, werr, gerr)
								}
								if werr == nil && !reflect.DeepEqual(want, got) {
									t.Fatalf("push %d %v(col %d): row %+v, col %+v", i, kind, c, want, got)
								}
							}
						}
						if a, b := eRow.RNG().State(), eCol.RNG().State(); a != b {
							t.Fatalf("push %d: RNG diverged after the aggregates", i)
						}
					}
					if emitted < 300/groups {
						t.Fatalf("only %d emissions", emitted)
					}
				})
			}
		}
	}
}

// TestLinearUniformMomentsPerColumn pins that asking for k columns' moments
// at once is k standalone LinearUniform scans, bit for bit, on a wrapped
// ring — including the same column twice under different weights.
func TestLinearUniformMomentsPerColumn(t *testing.T) {
	cols := []Column{{Name: "a", Probabilistic: true}, {Name: "b", Probabilistic: true},
		{Name: "c", Probabilistic: true}, {Name: "d", Probabilistic: true}}
	s, err := NewSchema("s", cols...)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1000
	w, err := NewColumnWindow(s, size)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRand(3)
	for i := 0; i < 2*size+size/3; i++ {
		fields := make([]randvar.Field, len(cols))
		for c := range fields {
			// Mixed magnitudes, so a different summation order would show.
			mu := rng.NormFloat64() * math.Pow(10, float64(rng.Uint64()%9)-4)
			if rng.Uint64()%4 == 0 {
				fields[c] = randvar.Field{Dist: dist.Point{V: mu}, N: int(rng.Uint64() % 30)}
				continue
			}
			nd, err := dist.NewNormal(mu, 0.01+rng.Float64()*100)
			if err != nil {
				t.Fatal(err)
			}
			fields[c] = randvar.Field{Dist: nd, N: 2 + int(rng.Uint64()%30)}
		}
		w.Push(&Tuple{Schema: s, Fields: fields, Prob: 1, Seq: uint64(i + 1)})
	}
	ask := []int{2, 0, 3, 1, 0}
	wts := []float64{1, 1.0 / size, 0.37, 1.0 / size, 1}
	mu, sigma2, n := w.LinearUniformMoments(ask, wts)
	for j, c := range ask {
		want, werr := w.LinearUniform(c, wts[j])
		got, gerr := randvar.GaussianResult(mu[j], sigma2[j], n[j])
		if werr != nil || gerr != nil {
			t.Fatalf("column %d: %v / %v", c, werr, gerr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("column %d weight %v: moments give %+v, LinearUniform %+v", c, wts[j], got, want)
		}
	}
}

// TestLinearUniformSampleSize checks the scan's branch-free minimum against
// randvar.DFSampleSize on a wrapped ring: deterministic fields (n = 0) never
// win, the smallest positive n does wherever it sits, none gives 0.
func TestLinearUniformSampleSize(t *testing.T) {
	s, err := NewSchema("s", Column{Name: "v", Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	const size = 7
	for _, ns := range [][]int{
		{0, 0, 0, 0, 0, 0, 0},
		{0, 0, 9, 0, 0, 0, 0},
		{5, 4, 3, 2, 1, 2, 3},
		{math.MaxInt, 0, math.MaxInt, 0, 0, 0, 0},
		{8, 0, 8, 0, 8, 0, 2},
	} {
		w, err := NewColumnWindow(s, size)
		if err != nil {
			t.Fatal(err)
		}
		// Three throwaway pushes first, so the live tuples wrap the ring.
		fields := make([]randvar.Field, 0, size)
		for i := 0; i < 3+size; i++ {
			f := randvar.Field{Dist: dist.Point{V: float64(i)}, N: 1}
			if i >= 3 {
				f.N = ns[i-3]
				fields = append(fields, f)
			}
			w.Push(&Tuple{Schema: s, Fields: []randvar.Field{f}, Prob: 1, Seq: uint64(i + 1)})
		}
		if _, _, n := w.LinearUniformMoments([]int{0}, []float64{1}); n[0] != randvar.DFSampleSize(fields...) {
			t.Errorf("sample sizes %v: scan gives %d, DFSampleSize %d", ns, n[0], randvar.DFSampleSize(fields...))
		}
	}
}

// TestColumnWindowStateRoundTrip snapshots a wrapped ring with Other slots
// and checks the linearized state restores bit-identically — directly via
// RestoreTuples and across forms via ColumnWindowState.Tuples — and that
// pushes after restore behave exactly like pushes into the original.
func TestColumnWindowStateRoundTrip(t *testing.T) {
	s := testSchema(t)
	const size = 19
	w, err := NewColumnWindow(s, size)
	if err != nil {
		t.Fatal(err)
	}
	var pushed []*Tuple
	for i := 0; i < size*3+5; i++ { // wrapped ring, head != 0
		pushed = append(pushed, mixedTuple(t, s, i))
		w.Push(pushed[i])
	}
	st := w.State()
	if st.Len() != size {
		t.Fatalf("state len = %d, want %d", st.Len(), size)
	}
	if err := st.Validate(s.Arity()); err != nil {
		t.Fatal(err)
	}
	bridged, err := st.Tuples(s)
	if err != nil {
		t.Fatal(err)
	}
	orig := pushed[len(pushed)-size:]
	if len(bridged) != len(orig) {
		t.Fatalf("bridged len = %d, want %d", len(bridged), len(orig))
	}
	for i := range orig {
		if !tuplesEqual(bridged[i], orig[i]) {
			t.Fatalf("bridged tuple %d = %+v, want %+v", i, bridged[i], orig[i])
		}
	}
	w2, err := NewColumnWindow(s, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.RestoreTuples(bridged); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w2.State(), st) {
		t.Fatal("restored state differs from captured state")
	}
	// Push-after-restore must evolve identically to the original window.
	for i := 0; i < size+3; i++ {
		tp := mixedTuple(t, s, 100_000+i)
		w.Push(tp)
		w2.Push(tp)
	}
	if !reflect.DeepEqual(w.State(), w2.State()) {
		t.Fatal("windows diverged after post-restore pushes")
	}
	// Empty-window round trip.
	empty, err := NewColumnWindow(s, size)
	if err != nil {
		t.Fatal(err)
	}
	est := empty.State()
	if est.Len() != 0 {
		t.Fatalf("empty state len = %d", est.Len())
	}
	if _, err := est.Tuples(s); err != nil {
		t.Fatalf("empty state tuples: %v", err)
	}

	// The JSON form, full and empty, decodes to a state that validates and
	// encodes to the same bytes; a kind outside a byte is refused.
	for _, cs := range []*ColumnWindowState{st, est} {
		enc, err := json.Marshal(cs)
		if err != nil {
			t.Fatal(err)
		}
		var back ColumnWindowState
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if _, err := back.Tuples(s); err != nil {
			t.Fatalf("decoded state %s: %v", enc, err)
		}
		if again, err := json.Marshal(&back); err != nil || string(again) != string(enc) {
			t.Fatalf("decoded state re-encodes as %s (%v), want %s", again, err, enc)
		}
	}
	if err := json.Unmarshal([]byte(`{"kind":[0,256]}`), new(ColumnState)); err == nil {
		t.Error("kind 256 decoded")
	}
}

func TestColumnWindowValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewColumnWindow(nil, 4); err == nil {
		t.Error("nil schema: want error")
	}
	if _, err := NewColumnWindow(s, 0); err == nil {
		t.Error("zero size: want error")
	}
	w, err := NewColumnWindow(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	over := make([]*Tuple, 3)
	for i := range over {
		over[i] = mixedTuple(t, s, i)
	}
	if err := w.RestoreTuples(over); err == nil {
		t.Error("over-capacity restore: want error")
	}
	bad := mixedTuple(t, s, 0)
	bad.Fields = bad.Fields[:1]
	if err := w.RestoreTuples([]*Tuple{bad}); err == nil {
		t.Error("arity mismatch restore: want error")
	}
	st := &ColumnWindowState{
		Prob:  []float64{0.5},
		ProbN: []int{0},
		Seq:   []uint64{1},
		Time:  []int64{0},
		Cols: []ColumnState{
			{Kind: []uint8{slotPoint}, Mean: []float64{1}, Var: []float64{0}, N: []int{0}},
			{Kind: []uint8{slotOther}, Mean: []float64{0}, Var: []float64{0}, N: []int{0}},
		},
	}
	if err := st.Validate(2); err == nil {
		t.Error("missing other distribution: want error")
	}
	st.Cols[1].Kind[0] = 99
	if err := st.Validate(2); err == nil {
		t.Error("unknown kind: want error")
	}
	st.Cols[1].Kind[0] = slotPoint
	st.Prob[0] = math.NaN()
	if err := st.Validate(2); err == nil {
		t.Error("NaN prob: want error")
	}
	st.Prob[0] = 0.5
	st.ProbN[0] = -1
	if err := st.Validate(2); err == nil {
		t.Error("negative ProbN: want error")
	}
	st.ProbN[0] = 0
	st.Cols[0].N[0] = -3
	if err := st.Validate(2); err == nil {
		t.Error("negative sample size: want error")
	}
	st.Cols[0].N[0] = 0
	if err := st.Validate(2); err != nil {
		t.Errorf("repaired snapshot: %v", err)
	}
	st.Cols = st.Cols[:1]
	if err := st.Validate(2); err == nil {
		t.Error("arity mismatch: want error")
	}
	// The per-tuple checks do not depend on there being a column to hang
	// them on.
	st.Cols, st.Prob[0] = nil, 1.5
	if err := st.Validate(0); err == nil {
		t.Error("probability 1.5 at arity 0: want error")
	}
}

// BenchmarkWindowScan measures the closed-form AVG scan over a full window
// — row gather+LinearGaussian vs the columnar contiguous scan — and,
// as col-ahead, the look-ahead scan answering the windows after each of
// AheadWidth more tuples in one pass, in ns per window. At 32768 rows,
// kernel-NAME runs each closed-form kernel alone over the full ring with
// every lane in use, also in ns per window.
func BenchmarkWindowScan(b *testing.B) {
	s, err := NewSchema("s", Column{Name: "v", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1000, 32768, 100_000} {
		tuples := make([]*Tuple, size)
		for i := range tuples {
			nd, err := dist.NewNormal(float64(i%100), 1+float64(i%7))
			if err != nil {
				b.Fatal(err)
			}
			tuples[i] = &Tuple{
				Schema: s,
				Fields: []randvar.Field{{Dist: nd, N: 10 + i%5}},
				Prob:   1,
				Seq:    uint64(i + 1),
			}
		}
		b.Run(fmt.Sprintf("row/%d", size), func(b *testing.B) {
			e := randvar.NewEvaluator(dist.NewRand(1))
			var fields []randvar.Field
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fields = fields[:0]
				for _, tp := range tuples {
					fields = append(fields, tp.Fields[0])
				}
				if _, err := Aggregate(e, Avg, fields); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("col/%d", size), func(b *testing.B) {
			w, err := NewColumnWindow(s, size)
			if err != nil {
				b.Fatal(err)
			}
			for _, tp := range tuples {
				w.Push(tp)
			}
			e := randvar.NewEvaluator(dist.NewRand(1))
			var scratch []randvar.Field
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AggregateColumn(e, Avg, w, 0, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("col-ahead/%d", size), func(b *testing.B) {
			w, err := NewColumnWindow(s, size)
			if err != nil {
				b.Fatal(err)
			}
			for _, tp := range tuples[:size-AheadWidth] {
				w.Push(tp)
			}
			ahead := tuples[size-AheadWidth:]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := w.LinearUniformAhead(0, 1/float64(size), ahead); !ok {
					b.Fatal("look-ahead declined")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(AheadWidth*b.N), "ns/window")
		})
		if size != 32768 {
			continue
		}
		w, err := NewColumnWindow(s, size)
		if err != nil {
			b.Fatal(err)
		}
		for _, tp := range tuples {
			w.Push(tp)
		}
		col := &w.cols[0]
		for _, k := range scanKernels() {
			b.Run(fmt.Sprintf("kernel-%s/%d", k.name, size), func(b *testing.B) {
				if k.skip != "" {
					b.Skip(k.skip)
				}
				var mu, sigma2 [AheadWidth]float64
				for i := 0; i < b.N; i++ {
					k.scan(&mu, &sigma2, ^uint(0), 1/float64(size), col.mean, col.varr, col.n, AheadWidth)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(AheadWidth*b.N), "ns/window")
			})
		}
	}
}

// BenchmarkAggregateColumnMC measures the Monte Carlo aggregate over the
// kernel-mc benchmark workload's window — 32 histogram rows of six edges ten
// apart and five counts of 1–12 — with the evaluator's default 1000 joint
// draws and 20-bucket result histogram, as AVG, MIN and MAX. Three more
// windows run the draw loop's other row shapes: AVG over 32 histograms of
// forty buckets, drawn through Histogram.Sample and its bucket search; AVG
// over a column alternating Normal and five-bucket histogram rows, whose
// normal rows draw through the generator's polar method; and MIN over 32
// Normal rows, compiled from the column arrays.
func BenchmarkAggregateColumnMC(b *testing.B) {
	s, err := NewSchema("s", Column{Name: "v", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	r := dist.NewRand(32)
	histogram := func(buckets int) randvar.Field {
		lo := 15 + 5*r.Float64()
		edges := make([]float64, buckets+1)
		for j := range edges {
			edges[j] = lo + 50*float64(j)/float64(buckets)
		}
		counts := make([]int, buckets)
		n := 0
		for j := range counts {
			counts[j] = 1 + r.Intn(12)
			n += counts[j]
		}
		h, err := dist.HistogramFromCounts(edges, counts)
		if err != nil {
			b.Fatal(err)
		}
		return randvar.Field{Dist: h, N: n}
	}
	window := func(field func(i int) randvar.Field) *ColumnWindow {
		w, err := NewColumnWindow(s, 32)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			w.Push(&Tuple{Schema: s, Fields: []randvar.Field{field(i)}, Prob: 1, Seq: uint64(i + 1)})
		}
		return w
	}
	kernel := window(func(int) randvar.Field { return histogram(5) })
	table := window(func(int) randvar.Field { return histogram(40) })
	normal := func() randvar.Field {
		nd, err := dist.NewNormal(20+30*r.Float64(), 1+20*r.Float64())
		if err != nil {
			b.Fatal(err)
		}
		return randvar.Field{Dist: nd, N: 5 + r.Intn(20)}
	}
	mixed := window(func(i int) randvar.Field {
		if i%2 == 0 {
			return histogram(5)
		}
		return normal()
	})
	normals := window(func(int) randvar.Field { return normal() })
	for _, bc := range []struct {
		name string
		kind AggKind
		w    *ColumnWindow
	}{
		{"AVG", Avg, kernel},
		{"MIN", Min, kernel},
		{"MAX", Max, kernel},
		{"buckets40-AVG", Avg, table},
		{"normal-histogram-AVG", Avg, mixed},
		{"normal-MIN", Min, normals},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := randvar.NewEvaluator(dist.NewRand(1))
			for i := 0; i < b.N; i++ {
				if _, err := AggregateColumn(e, bc.kind, bc.w, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
