package stream

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
)

// scanRef is the closed-form scan as one oldest-first loop over the
// window's linearized contents, the way randvar.LinearGaussian adds
// a window's fields: the reference every lane of LinearUniformAhead is held
// to. Its sample size is the smallest positive n, with every n ≤ 0 wrapped
// out of the running minimum.
func scanRef(w *ColumnWindow, c int, wt float64) (mu, sigma2 float64, n int) {
	cs := w.State().Cols[c]
	least := ^uint(0)
	for i := range cs.Mean {
		mu += wt * cs.Mean[i]
		sigma2 += wt * wt * cs.Var[i]
		least = min(least, uint(cs.N[i])-1)
	}
	if least < math.MaxInt {
		n = int(least) + 1
	}
	return mu, sigma2, n
}

// sameBits reports whether a and b have the same bits. Two NaNs count as
// equal: which NaN operand an add returns is the compiler's choice of
// operand order, and no window admits a NaN mean.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAhead runs the kernel over w with the look-ahead, then pushes the
// look-ahead into w one tuple at a time and demands that each lane match
// scanRef of the window the push left; with no look-ahead, lane 0 must
// match the window as it stands.
func checkAhead(t *testing.T, w *ColumnWindow, wt float64, ahead []*Tuple) {
	t.Helper()
	mu, sigma2, n, ok := w.LinearUniformAhead(0, wt, ahead)
	if !ok {
		t.Fatalf("size %d count %d, look-ahead %d: kernel declined a Gaussian column", w.size, w.count, len(ahead))
	}
	lane := func(j int) {
		rm, rs, rn := scanRef(w, 0, wt)
		if !sameBits(mu[j], rm) || !sameBits(sigma2[j], rs) || n[j] != rn {
			t.Errorf("size %d, look-ahead %d, lane %d: kernel (%v, %v, %d), push and scan (%v, %v, %d)",
				w.size, len(ahead), j, mu[j], sigma2[j], n[j], rm, rs, rn)
		}
	}
	if len(ahead) == 0 {
		lane(0)
	}
	for j, tp := range ahead {
		w.Push(tp)
		lane(j)
	}
}

// aheadTuple is a one-column tuple: a Point when v is 0, else a Normal
// built without validation, so any float bits reach the kernel.
func aheadTuple(s *Schema, mean, v float64, n int) *Tuple {
	var d dist.Distribution = dist.Point{V: mean}
	if v != 0 {
		d = dist.Normal{Mu: mean, Sigma2: v}
	}
	return &Tuple{Schema: s, Fields: []randvar.Field{{Dist: d, N: n}}, Prob: 1}
}

// TestLinearUniformAhead holds every lane of a look-ahead of 0 to AheadWidth
// tuples to pushing them and scanning: ring sizes 1–9 and 64, empty,
// filling, full and wrapped windows, and means of −0, subnormals and ±1e300
// beside ordinary ones, with sample sizes ≤ 0 among them. The kernel must
// decline a window or look-ahead holding a histogram, more than AheadWidth
// tuples, and a span window with a look-ahead.
func TestLinearUniformAhead(t *testing.T) {
	s, err := NewSchema("s", Column{Name: "v", Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{math.Copysign(0, -1), 0, 5e-324, -2.2e-308, 1e300, -1e300, 1.5, -7.25, 61.3}
	vars := []float64{0, 0, 4.9e-324, 1e-300, 2.5, 9, 1e300}
	ns := []int{0, -1, -3, 1, 2, 7, 30, math.MaxInt, math.MinInt}
	rng := rand.New(rand.NewSource(64))
	next := func() *Tuple {
		return aheadTuple(s, means[rng.Intn(len(means))], vars[rng.Intn(len(vars))], ns[rng.Intn(len(ns))])
	}
	for _, size := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for _, fill := range []int{0, 1, size - 1, size, size + 1, 2*size + 3} {
			for k := 0; k <= AheadWidth; k++ {
				for _, wt := range []float64{1, 1 / float64(size), -0.37} {
					w, err := NewColumnWindow(s, size)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < fill; i++ {
						w.Push(next())
					}
					ahead := make([]*Tuple, k)
					for j := range ahead {
						ahead[j] = next()
					}
					checkAhead(t, w, wt, ahead)
				}
			}
		}
	}

	hist, err := dist.NewHistogram([]float64{0, 1, 2}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	histTuple := &Tuple{Schema: s, Fields: []randvar.Field{{Dist: hist, N: 4}}, Prob: 1}
	w, err := NewColumnWindow(s, 6)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(next())
	over := make([]*Tuple, AheadWidth+1)
	for j := range over {
		over[j] = next()
	}
	if _, _, _, ok := w.LinearUniformAhead(0, 1, []*Tuple{next(), histTuple}); ok {
		t.Error("a histogram in the look-ahead: want the kernel to decline")
	}
	if _, _, _, ok := w.LinearUniformAhead(0, 1, over); ok {
		t.Errorf("a look-ahead of %d: want the kernel to decline", len(over))
	}
	w.Push(histTuple)
	if _, _, _, ok := w.LinearUniformAhead(0, 1, nil); ok {
		t.Error("a histogram in the window: want the kernel to decline")
	}
	span, err := NewSpanColumnWindow(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := span.LinearUniformAhead(0, 1, over[:1]); ok {
		t.Error("a span window with a look-ahead: want the kernel to decline")
	}
	if _, _, _, ok := span.LinearUniformAhead(0, 1, nil); !ok {
		t.Error("a span window without a look-ahead: want the kernel to scan it")
	}
}

// FuzzLinearUniformAhead holds the kernel to pushing and scanning over
// arbitrary float bits, sample sizes, ring sizes, fill levels (hence ring
// offsets) and look-ahead lengths. raw is read eight bytes at a time, round
// and round: a mean, a variance and a sample size per tuple.
func FuzzLinearUniformAhead(f *testing.F) {
	f.Add(uint8(7), uint16(10), uint8(4), math.Float64bits(1.0/7), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x02\x03\x04\x05\x06\x07\x08\x80"))
	f.Add(uint8(0), uint16(3), uint8(3), math.Float64bits(1), []byte{})
	f.Add(uint8(63), uint16(200), uint8(2), math.Float64bits(-2.5), []byte("\xff\xff\xff\xff\xff\xff\xef\x7f\x01\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(uint8(9), uint16(31), uint8(8), math.Float64bits(1.0/10), []byte("\x9a\x99\x99\x99\x99\x99\xb9\x3f\x00\x00\x00\x00\x00\x00\x00\x80\xff\xff\xff\xff\xff\xff\xff\x7f"))
	s, err := NewSchema("s", Column{Name: "v", Probabilistic: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, size uint8, fill uint16, k uint8, wt uint64, raw []byte) {
		w, err := NewColumnWindow(s, 1+int(size)%70)
		if err != nil {
			t.Fatal(err)
		}
		word := 0
		next := func() uint64 {
			if len(raw) < 8 {
				word++
				return uint64(word) * 0x9e3779b97f4a7c15
			}
			i := word % (len(raw) / 8)
			word++
			return binary.LittleEndian.Uint64(raw[8*i:])
		}
		tuple := func() *Tuple {
			mean, v := math.Float64frombits(next()), math.Float64frombits(next())
			return aheadTuple(s, mean, v, int(int64(next())))
		}
		for i := 0; i < int(fill)%300; i++ {
			w.Push(tuple())
		}
		ahead := make([]*Tuple, int(k)%(AheadWidth+1))
		for j := range ahead {
			ahead[j] = tuple()
		}
		checkAhead(t, w, math.Float64frombits(wt), ahead)
	})
}
