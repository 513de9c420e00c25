package randvar

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/learn"
)

// referenceApply is Apply as it was before Monte Carlo inputs were compiled
// into a dist.Joint, kept word for word (receiver and name apart) as the
// reference Draw is held to: one Distribution.Sample call per input per
// draw, through the *Rand.
func referenceApply(e *Evaluator, f Func, fields ...Field) (Result, error) {
	if f == nil {
		return Result{}, errors.New("randvar: nil function")
	}
	if len(fields) == 0 {
		return Result{}, errors.New("randvar: no input fields")
	}
	args := make([]float64, len(fields))
	allDet := true
	for _, fl := range fields {
		if err := fl.Validate(); err != nil {
			return Result{}, err
		}
		if !fl.IsDet() {
			allDet = false
		}
	}
	if allDet {
		for i, fl := range fields {
			args[i] = fl.Dist.Mean()
		}
		v, err := f(args)
		if err != nil {
			return Result{}, err
		}
		return Result{Field: Det(v)}, nil
	}
	m := e.Values
	if m < 2 {
		m = DefaultMonteCarloValues
	}
	values := make([]float64, 0, m)
	for k := 0; k < m; k++ {
		for i, fl := range fields {
			args[i] = fl.Dist.Sample(e.rng)
		}
		v, err := f(args)
		if err != nil {
			return Result{}, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Domain failures of f (e.g. division by a draw near 0)
			// are skipped rather than poisoning the sequence.
			continue
		}
		values = append(values, v)
	}
	if len(values) < 2 {
		return Result{}, errors.New("randvar: expression produced fewer than 2 finite values")
	}
	outDist, err := learn.NewHistogramLearner(e.Bins).Learn(learn.NewSample(values))
	if err != nil {
		return Result{}, err
	}
	n := DFSampleSize(fields...)
	return Result{
		Field:  Field{Dist: outDist, N: n},
		Values: values,
	}, nil
}

// The functions stream.Aggregate handed referenceApply for AVG/SUM, MIN and
// MAX, word for word.

func referenceSum(w float64) Func {
	return func(a []float64) (float64, error) {
		s := 0.0
		for _, v := range a {
			s += v
		}
		return s * w, nil
	}
}

func referenceMin(a []float64) (float64, error) {
	m := a[0]
	for _, v := range a[1:] {
		m = math.Min(m, v)
	}
	return m, nil
}

func referenceMax(a []float64) (float64, error) {
	m := a[0]
	for _, v := range a[1:] {
		m = math.Max(m, v)
	}
	return m, nil
}

// fieldKinds is the number of input kinds randomField draws from.
const fieldKinds = 12

// randomField returns a field of the given kind: every row shape of the
// draw loop, built through constructors and as struct literals, with
// values drawn from r.
func randomField(t testing.TB, r *dist.Rand, kind int) Field {
	t.Helper()
	n := 1 + r.Intn(30)
	histogram := func(buckets int, literal bool) dist.Distribution {
		edges := make([]float64, buckets+1)
		x := 40*r.Float64() - 20
		for i := range edges {
			edges[i] = x
			x += 0.5 + 5*r.Float64()
		}
		counts := make([]int, buckets)
		total := 0
		for i := range counts {
			if r.Intn(4) > 0 {
				counts[i] = r.Intn(9)
			}
			total += counts[i]
		}
		if total == 0 {
			counts[r.Intn(buckets)] = 1
		}
		h, err := dist.HistogramFromCounts(edges, counts)
		if err != nil {
			t.Fatal(err)
		}
		if literal {
			return &dist.Histogram{Edges: h.Edges, Probs: h.Probs}
		}
		return h
	}
	var d dist.Distribution
	var err error
	switch kind {
	case 0:
		d, err = dist.NewNormal(100*r.Float64()-50, 0.01+50*r.Float64())
	case 1:
		d = dist.Point{V: 100*r.Float64() - 50}
	case 2:
		return Det(100*r.Float64() - 50)
	case 3:
		// Signed zeros, so ties between them reach the MIN and MAX folds.
		d = dist.Point{V: math.Copysign(0, r.Float64()-0.5)}
	case 4:
		d = histogram(1+r.Intn(5), false)
	case 5:
		d = histogram(6+r.Intn(44), false)
	case 6:
		d = histogram(1+r.Intn(9), true)
	case 7:
		xs := make([]float64, 1+r.Intn(9))
		ps := make([]float64, len(xs))
		for i := range xs {
			xs[i] = float64(r.Intn(20)) - 10
			ps[i] = float64(r.Intn(4))
		}
		ps[0]++
		d, err = dist.NewDiscrete(xs, ps)
	case 8:
		a := 100*r.Float64() - 50
		d, err = dist.NewUniform(a, a+0.1+30*r.Float64())
	case 9:
		var nd dist.Normal
		if nd, err = dist.NewNormal(10*r.Float64(), 1+r.Float64()); err == nil {
			d, err = dist.NewMixture([]dist.Distribution{nd, histogram(1+r.Intn(8), false)}, []float64{r.Float64(), 1})
		}
	case 10:
		d, err = dist.NewExponential(0.1 + r.Float64())
	default:
		d, err = dist.NewGamma(0.5+2*r.Float64(), 1+r.Float64())
	}
	if err != nil {
		t.Fatal(err)
	}
	return Field{Dist: d, N: n}
}

// foldCase is one fold Draw takes and the function referenceApply takes for
// it.
type foldCase struct {
	name string
	fold dist.Fold
	ref  Func
}

func foldCases(width int) []foldCase {
	w := 1 / float64(width)
	// f mixes every argument in, divides by one (so a draw of 0 is a domain
	// failure), and errors on a rare draw, so the error path is compared too.
	f := func(a []float64) (float64, error) {
		v := a[0]
		for i, x := range a[1:] {
			if i%2 == 0 {
				v += x * x / 8
			} else {
				v -= math.Sqrt(math.Abs(x))
			}
		}
		if a[len(a)-1] > 45 {
			return 0, fmt.Errorf("draw %v out of range", a[len(a)-1])
		}
		if a[0] < -40 {
			return math.Inf(-1), nil
		}
		return v / a[len(a)-1], nil
	}
	return []foldCase{
		{"AVG", dist.Fold{Op: dist.FoldSum, W: w}, referenceSum(w)},
		{"SUM", dist.Fold{Op: dist.FoldSum, W: 1}, referenceSum(1)},
		{"MIN", dist.Fold{Op: dist.FoldMin}, referenceMin},
		{"MAX", dist.Fold{Op: dist.FoldMax}, referenceMax},
		{"func", dist.Fold{Op: dist.FoldFunc, F: f}, f},
	}
}

// checkDraws runs every fold over fields through Draw on one evaluator and
// through referenceApply on another seeded alike, one after the other, and
// demands the same error, the same value sequence bit for bit, the same
// learned field, and the same generator state — spare normal included —
// after each fold.
func checkDraws(t *testing.T, seed uint64, m int, fields []Field) {
	t.Helper()
	got := NewEvaluator(dist.NewRand(seed))
	want := NewEvaluator(dist.NewRand(seed))
	got.Values, want.Values = m, m
	for _, fc := range foldCases(len(fields)) {
		c := got.Column()
		for _, f := range fields {
			c.Add(f)
		}
		g, gerr := got.Draw(c, fc.fold)
		w, werr := referenceApply(want, fc.ref, fields...)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s over %v: error %v, reference %v", fc.name, fields, gerr, werr)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s over %v: %d values, reference %d", fc.name, fields, len(g.Values), len(w.Values))
		}
		for i := range g.Values {
			if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
				t.Fatalf("%s over %v: value %d is %v, reference %v", fc.name, fields, i, g.Values[i], w.Values[i])
			}
		}
		if !reflect.DeepEqual(g.Field, w.Field) {
			t.Fatalf("%s over %v: field %+v, reference %+v", fc.name, fields, g.Field, w.Field)
		}
		if gs, ws := got.RNG().State(), want.RNG().State(); gs != ws {
			t.Fatalf("%s over %v: generator state %+v, reference %+v", fc.name, fields, gs, ws)
		}
	}
}

// TestDrawMatchesReference holds the compiled draw loop to the loop it
// replaced on seeded random columns of every input kind, alone and mixed,
// for AVG, SUM, MIN, MAX and a function.
func TestDrawMatchesReference(t *testing.T) {
	r := dist.NewRand(2012)
	for trial := 0; trial < 400; trial++ {
		width := 1 + r.Intn(40)
		kind := r.Intn(fieldKinds)
		fields := make([]Field, width)
		for i := range fields {
			// Half the columns hold one kind, the other half any.
			k := kind
			if trial%2 == 1 {
				k = r.Intn(fieldKinds)
			}
			fields[i] = randomField(t, r, k)
		}
		checkDraws(t, r.Uint64(), 2+r.Intn(60), fields)
	}
}

// TestDrawExactColumns: a column of exact values takes no draws, on either
// side, and folds to an exact field.
func TestDrawExactColumns(t *testing.T) {
	r := dist.NewRand(7)
	for trial := 0; trial < 50; trial++ {
		fields := make([]Field, 1+r.Intn(10))
		for i := range fields {
			fields[i] = randomField(t, r, 2)
		}
		checkDraws(t, r.Uint64(), 16, fields)
	}
}

// FuzzMonteCarloDraws is TestDrawMatchesReference over columns the fuzzer
// picks: each byte of kinds chooses one input's kind.
func FuzzMonteCarloDraws(f *testing.F) {
	f.Add(uint64(1), []byte{4, 4, 4, 4}, uint8(16))
	f.Add(uint64(2), []byte{0, 4, 0, 5, 7}, uint8(30))
	f.Add(uint64(3), []byte{2, 2, 3, 3}, uint8(8))
	f.Add(uint64(4), []byte{9, 10, 11, 6, 8, 1}, uint8(40))
	f.Add(uint64(5), []byte{0}, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, kinds []byte, m uint8) {
		if len(kinds) == 0 || len(kinds) > 64 {
			return
		}
		r := dist.NewRand(seed)
		fields := make([]Field, len(kinds))
		for i, k := range kinds {
			fields[i] = randomField(t, r, int(k)%fieldKinds)
		}
		checkDraws(t, seed, 2+int(m)%100, fields)
	})
}
