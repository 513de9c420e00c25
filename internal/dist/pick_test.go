package dist

import (
	"math"
	"sync"
	"testing"
)

// The bucket searches Histogram.Sample, Discrete.Sample and Mixture.Sample
// ran before they shared pick, kept word for word as the reference pick is
// held to. Only what they return differs: the index the walk stops at
// rather than the value drawn from it.

func referenceHistogram(h *Histogram, u float64) int {
	cum := 0.0
	for i, pi := range h.Probs {
		cum += pi
		if u < cum {
			return i
		}
	}
	// Rounding left u just above the final cumulative mass.
	last := len(h.Probs) - 1
	return last
}

func referenceDiscrete(d *Discrete, u float64) int {
	c := 0.0
	for i, pi := range d.ps {
		c += pi
		if u < c {
			return i
		}
	}
	return len(d.xs) - 1
}

func referenceMixture(m *Mixture, u float64) int {
	c := 0.0
	for i, w := range m.Weights {
		c += w
		if u < c {
			return i
		}
	}
	return len(m.Components) - 1
}

// fuzzWeights turns bytes into adversarial non-negative weights: zeros,
// subnormals, powers of two small enough to vanish into a running sum (so
// prefix sums repeat), and ordinary magnitudes.
func fuzzWeights(raw []byte) []float64 {
	ws := make([]float64, len(raw))
	for i, b := range raw {
		switch b % 4 {
		case 0:
			ws[i] = 0
		case 1:
			ws[i] = math.SmallestNonzeroFloat64 * float64(b)
		case 2:
			ws[i] = math.Ldexp(1, -int(b))
		default:
			ws[i] = float64(b)
		}
	}
	return ws
}

// probes returns the draws worth asking about for a table: every running
// sum, one ulp either side of it, and the ends of [0, 1).
func probes(ps []float64) []float64 {
	us := []float64{0, math.Nextafter(1, 0)}
	c := 0.0
	for _, p := range ps {
		c += p
		us = append(us, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
	}
	return us
}

// checkSelect asserts that every sampler built from ps — through each
// constructor and as a literal — picks the reference's index for every
// probe in us. ws are the unnormalised weights ps came from; literals take
// them as they are, since a literal's mass need not sum to 1.
func checkSelect(t *testing.T, ps, ws []float64, us []float64, restoreOnly bool) {
	t.Helper()
	n := len(ps)
	edges := make([]float64, n+1)
	xs := make([]float64, n)
	comps := make([]Distribution, n)
	for i := range xs {
		edges[i] = float64(i)
		xs[i] = float64(i)
		comps[i] = Point{V: float64(i)}
	}
	edges[n] = float64(n)

	var hists []*Histogram
	var discs []*Discrete
	var mixes []*Mixture
	h, err := RestoreHistogram(edges, ps)
	if err != nil {
		t.Fatalf("RestoreHistogram(%v): %v", ps, err)
	}
	d, err := RestoreDiscrete(xs, ps)
	if err != nil {
		t.Fatalf("RestoreDiscrete(%v): %v", ps, err)
	}
	m, err := RestoreMixture(comps, ps)
	if err != nil {
		t.Fatalf("RestoreMixture(%v): %v", ps, err)
	}
	hists, discs, mixes = append(hists, h), append(discs, d), append(mixes, m)
	if !restoreOnly {
		if h, err = NewHistogram(edges, ps); err != nil {
			t.Fatalf("NewHistogram(%v): %v", ps, err)
		}
		if d, err = NewDiscrete(xs, ws); err != nil {
			t.Fatalf("NewDiscrete(%v): %v", ws, err)
		}
		if m, err = NewMixture(comps, ws); err != nil {
			t.Fatalf("NewMixture(%v): %v", ws, err)
		}
		hists, discs, mixes = append(hists, h), append(discs, d), append(mixes, m)
	}
	for _, h := range hists {
		if len(h.cum) != len(h.Probs) {
			t.Fatalf("constructed histogram has no prefix table")
		}
	}
	hists = append(hists, &Histogram{Edges: edges, Probs: ps}, &Histogram{Edges: edges, Probs: ws})
	mixes = append(mixes, &Mixture{Components: comps, Weights: ps}, &Mixture{Components: comps, Weights: ws})

	for _, u := range us {
		for _, h := range hists {
			if got, want := pick(h.cum, h.Probs, u), referenceHistogram(h, u); got != want {
				t.Fatalf("histogram %v (table %v), u=%v: pick %d, reference %d", h.Probs, h.cum != nil, u, got, want)
			}
			checkJointAt(t, h, u)
		}
		for _, d := range discs {
			if got, want := pick(d.cum, d.ps, u), referenceDiscrete(d, u); got != want {
				t.Fatalf("discrete %v, u=%v: pick %d, reference %d", d.ps, u, got, want)
			}
		}
		for _, m := range mixes {
			if got, want := pick(m.cum, m.Weights, u), referenceMixture(m, u); got != want {
				t.Fatalf("mixture %v (table %v), u=%v: pick %d, reference %d", m.Weights, m.cum != nil, u, got, want)
			}
		}
	}
}

// checkJointAt holds d's compiled row to d.Sample for a draw whose bucket
// choice sees u, and for the draw just above it on the generator's grid:
// the same variate and the same generator state after it.
func checkJointAt(t *testing.T, d Distribution, u float64) {
	t.Helper()
	var j Joint
	j.Add(d)
	for _, v := range []float64{u, u + 0x1p-53} {
		if v < 0 || v >= 1 {
			continue
		}
		if r := randAt(v, 7); r.Float64() != math.Floor(v*(1<<53))/(1<<53) {
			t.Fatalf("randAt(%v) draws another first variate", v)
		}
		want, got := randAt(v, 7), randAt(v, 7)
		x := d.Sample(want)
		y, err := j.Draw(got, nil, 1, first)
		if err != nil || len(y) != 1 || math.Float64bits(x) != math.Float64bits(y[0]) || want.State() != got.State() {
			t.Fatalf("%v at u=%v: row draws %v (%v), Sample %v", d, v, y, err, x)
		}
	}
}

// FuzzSampleSelect holds pick to the early-exit walk on adversarial
// probability vectors, for draws exactly at, one ulp below and one ulp above
// every running sum. short takes that many ulps (of 1) off the vector's
// largest entry, so its running sum ends a few ulps short of 1 and the
// fallthrough to the last bucket is reachable.
func FuzzSampleSelect(f *testing.F) {
	f.Add([]byte{7}, uint8(0))
	f.Add([]byte{3, 7, 11, 15, 19}, uint8(0))
	f.Add([]byte{0, 3, 7, 0}, uint8(1))
	f.Add([]byte{3, 0, 0, 7, 0, 11}, uint8(3))
	f.Add([]byte{1, 5, 9, 3, 13, 2, 6}, uint8(2))
	f.Add([]byte{2, 3, 6, 10, 14, 18, 22, 250, 254, 255, 3}, uint8(7))
	long := make([]byte, 96)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, short uint8) {
		if len(raw) > 96 {
			// The check is quadratic in the length; TestPickLongTables
			// covers long tables.
			raw = raw[:96]
		}
		ws := fuzzWeights(raw)
		total := 0.0
		for _, w := range ws {
			total += w
		}
		if len(ws) == 0 || !(total > 0) || math.IsInf(total, 0) {
			return
		}
		ps := make([]float64, len(ws))
		big := 0
		for i, w := range ws {
			ps[i] = w / total
			if ps[i] > ps[big] {
				big = i
			}
		}
		checkSelect(t, ps, ws, append(probes(ps), probes(ws)...), false)
		if short > 0 {
			sh := append([]float64(nil), ps...)
			sh[big] = math.Max(0, sh[big]-float64(short)*0x1p-53)
			checkSelect(t, sh, ws, append(probes(sh), probes(ps)...), true)
		}
	})
}

// TestPickLongTables runs the fuzz property over seeded vectors on both sides
// of pickLinearMax and up to 4096 buckets, where the binary search runs.
func TestPickLongTables(t *testing.T) {
	r := NewRand(4096)
	for _, n := range []int{1, 2, pickLinearMax, pickLinearMax + 1, pickLinearMax + 2, 33, 64, 255, 256, 257, 4096} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(r.Uint64())
		}
		raw[n/2] = 3 // at least one ordinary weight
		ws := fuzzWeights(raw)
		total := 0.0
		for _, w := range ws {
			total += w
		}
		ps := make([]float64, n)
		for i, w := range ws {
			ps[i] = w / total
		}
		us := probes(ps)
		for i := 0; i < 1000; i++ {
			us = append(us, r.Float64())
		}
		checkSelect(t, ps, ws, us, false)
	}
}

// TestSampleConcurrentReaders: Sample only reads what construction wrote,
// so goroutines may share a distribution (the race detector checks it).
func TestSampleConcurrentReaders(t *testing.T) {
	h, err := HistogramFromCounts([]float64{0, 1, 2, 3, 4, 5}, []int{3, 12, 1, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixture([]Distribution{h, d}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRand(seed)
			for i := 0; i < 1000; i++ {
				h.Sample(r)
				d.Sample(r)
				m.Sample(r)
			}
		}(uint64(g))
	}
	wg.Wait()
}
