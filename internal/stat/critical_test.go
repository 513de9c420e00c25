package stat

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// The direct computations the table stands in front of, written the way
// their callers computed them before the table existed.

func directMean(a float64, n int) (float64, error) {
	if n < 30 {
		return TUpper(a, float64(n-1))
	}
	return ZUpper(a), nil
}

func directVariance(c float64, n int) (float64, float64, error) {
	df := float64(n - 1)
	upper, err := ChiSquareUpper((1-c)/2, df)
	if err != nil {
		return 0, 0, err
	}
	lower, err := ChiSquareUpper((1+c)/2, df)
	return upper, lower, err
}

func directPrediction(c float64, r int) (float64, error) {
	return TQuantile((1+c)/2, float64(r-1))
}

// critCase is one argument pair of one of the three table functions.
type critCase struct {
	kind critKind
	p    float64
	n    int
}

// key returns the key the table stores c under: MeanCritical folds every
// n past the t/z switch into one entry.
func (c critCase) key() (critKind, float64, int) {
	if c.kind == critMean && c.n > tFromN {
		return c.kind, c.p, tFromN
	}
	return c.kind, c.p, c.n
}

func (c critCase) direct() ([2]float64, error) {
	switch c.kind {
	case critMean:
		v, err := directMean(c.p, c.n)
		return [2]float64{v}, err
	case critVariance:
		u, l, err := directVariance(c.p, c.n)
		return [2]float64{u, l}, err
	}
	v, err := directPrediction(c.p, c.n)
	return [2]float64{v}, err
}

func (c critCase) cached() ([2]float64, error) {
	switch c.kind {
	case critMean:
		v, err := MeanCritical(c.p, c.n)
		return [2]float64{v}, err
	case critVariance:
		u, l, err := VarianceCritical(c.p, c.n)
		return [2]float64{u, l}, err
	}
	v, err := PredictionCritical(c.p, c.n)
	return [2]float64{v}, err
}

func (c critCase) stored() *critEntry {
	k, p, n := c.key()
	return critLoad(critSlot(k, p, n), p, n)
}

// collider returns another key of the same kind that maps to c's slot,
// found among small sample sizes (cheap to compute) at c's probability and
// the ones a few ulps above it.
func (c critCase) collider() critCase {
	k, p, n := c.key()
	want := critSlot(k, p, n)
	for q := p; ; q = math.Nextafter(q, 1) {
		for m := 2; m < tFromN; m++ {
			if (q != p || m != n) && critSlot(k, q, m) == want {
				return critCase{kind: k, p: q, n: m}
			}
		}
	}
}

func clearCritTable() {
	for k := range critTable {
		for i := range critTable[k] {
			critTable[k][i].Store(nil)
		}
	}
}

func sameBits(a, b [2]float64) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1])
}

// TestCriticalBitIdentical compares every table answer with the direct
// computation, bit for bit, on the call that misses, on the call that hits,
// and again after another key evicted the entry.
func TestCriticalBitIdentical(t *testing.T) {
	clearCritTable()
	levels := []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9}
	var ns []int
	for n := 2; n <= 300; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 1000, 100000, 1000000)
	for _, c := range levels {
		for _, n := range ns {
			for _, tc := range []critCase{
				{kind: critMean, p: (1 - c) / 2, n: n},
				{kind: critVariance, p: c, n: n},
				{kind: critPrediction, p: c, n: n},
			} {
				want, wantErr := tc.direct()
				if wantErr != nil {
					t.Fatalf("%+v: direct call failed: %v", tc, wantErr)
				}
				check := func(when string) {
					t.Helper()
					got, err := tc.cached()
					if err != nil || !sameBits(got, want) {
						t.Fatalf("%+v %s: got %v, %v; want %v", tc, when, got, err, want)
					}
				}
				// Any leftover entry came from an earlier case with the same
				// key (every large n shares the mean entry); drop it so the
				// first call is a miss.
				k, p, kn := tc.key()
				critSlot(k, p, kn).Store(nil)
				check("on the miss")
				if tc.stored() == nil {
					t.Fatalf("%+v: nothing stored after a successful miss", tc)
				}
				check("on the hit")
				other := tc.collider()
				if _, err := other.cached(); err != nil {
					t.Fatalf("evicting key %+v: %v", other, err)
				}
				if tc.stored() != nil {
					t.Fatalf("%+v still stored after %+v took its slot", tc, other)
				}
				check("after eviction")
			}
		}
	}
}

// TestCriticalErrors: a rejected argument returns the error the direct call
// returns and leaves the table exactly as it was.
func TestCriticalErrors(t *testing.T) {
	clearCritTable()
	for _, c := range []critCase{
		{kind: critMean, p: 0.05, n: 20},
		{kind: critVariance, p: 0.9, n: 20},
		{kind: critPrediction, p: 0.9, n: 20},
	} {
		if _, err := c.cached(); err != nil {
			t.Fatal(err)
		}
	}
	var before [critKinds][critSlots]*critEntry
	for k := range critTable {
		for i := range critTable[k] {
			before[k][i] = critTable[k][i].Load()
		}
	}
	nan := math.NaN()
	cases := []critCase{
		// n < 2, and d.f. 0 (n = 1), on every kind.
		{kind: critMean, p: 0.05, n: 1}, {kind: critMean, p: 0.05, n: 0}, {kind: critMean, p: 0.05, n: -3},
		{kind: critVariance, p: 0.9, n: 1}, {kind: critVariance, p: 0.9, n: 0}, {kind: critVariance, p: 0.9, n: -3},
		{kind: critPrediction, p: 0.9, n: 1}, {kind: critPrediction, p: 0.9, n: 0},
		// A probability or level of 0, 1 or NaN, below and above the t/z
		// switch.
		{kind: critMean, p: 0, n: 20}, {kind: critMean, p: 1, n: 20}, {kind: critMean, p: nan, n: 20},
		{kind: critMean, p: 0, n: 50}, {kind: critMean, p: 1, n: 50}, {kind: critMean, p: nan, n: 50},
		{kind: critVariance, p: 0, n: 20}, {kind: critVariance, p: 1, n: 20}, {kind: critVariance, p: nan, n: 20},
		{kind: critPrediction, p: 0, n: 20}, {kind: critPrediction, p: 1, n: 20}, {kind: critPrediction, p: nan, n: 20},
	}
	for _, c := range cases {
		got, err := c.cached()
		if !errors.Is(err, ErrDomain) {
			t.Errorf("%+v: got %v, %v; want ErrDomain", c, got, err)
		}
		if CheckProb(c.p) == nil && (c.kind != critMean || c.n < tFromN) {
			// The direct call fails the same way where it does not panic.
			if _, derr := c.direct(); derr != err {
				t.Errorf("%+v: error %v, direct call %v", c, err, derr)
			}
		}
	}
	for k := range critTable {
		for i := range critTable[k] {
			if critTable[k][i].Load() != before[k][i] {
				t.Fatalf("slot %d of kind %d changed by a failed lookup", i, k)
			}
		}
	}
}

// TestCriticalChurn: a burst of ten times the table's capacity in distinct
// pairs does not keep a hot pair out. One call re-installs it, after which
// lookups allocate nothing.
func TestCriticalChurn(t *testing.T) {
	const c, n = 0.95, 20
	for i := 0; i < 10*critSlots; i++ {
		if _, _, err := VarianceCritical(c, 100+i); err != nil {
			t.Fatal(err)
		}
		if _, err := MeanCritical(0.001+float64(i)*1e-5, 2+i%(tFromN-2)); err != nil {
			t.Fatal(err)
		}
	}
	wantM, _ := directMean((1-c)/2, n)
	wantU, wantL, _ := directVariance(c, n)
	if _, err := MeanCritical((1-c)/2, n); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VarianceCritical(c, n); err != nil {
		t.Fatal(err)
	}
	var m, u, l float64
	allocs := testing.AllocsPerRun(100, func() {
		m, _ = MeanCritical((1-c)/2, n)
		u, l, _ = VarianceCritical(c, n)
	})
	if allocs != 0 {
		t.Errorf("hot pair lookups allocate %v times per run, want 0", allocs)
	}
	if !sameBits([2]float64{m, u}, [2]float64{wantM, wantU}) || math.Float64bits(l) != math.Float64bits(wantL) {
		t.Errorf("hot pair: got %v %v %v, want %v %v %v", m, u, l, wantM, wantU, wantL)
	}
}

// TestCriticalConcurrent has goroutines read and replace shared and
// colliding keys at once; every answer must still be the direct one. Run
// under -race.
func TestCriticalConcurrent(t *testing.T) {
	clearCritTable()
	base := []critCase{
		{kind: critMean, p: 0.025, n: 12},
		{kind: critMean, p: 0.05, n: 40},
		{kind: critVariance, p: 0.95, n: 12},
		{kind: critVariance, p: 0.9, n: 500},
		{kind: critPrediction, p: 0.9, n: 20},
	}
	keys := append([]critCase(nil), base...)
	for _, c := range base {
		keys = append(keys, c.collider())
	}
	want := make([][2]float64, len(keys))
	for i, c := range keys {
		v, err := c.direct()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*7 + r*3) % len(keys)
				got, err := keys[i].cached()
				if err != nil || !sameBits(got, want[i]) {
					t.Errorf("worker %d: %+v = %v, %v; want %v", w, keys[i], got, err, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

var benchCrit float64

// BenchmarkTUpper and BenchmarkChiSquareUpper time the inversions the table
// saves: Lemma 2's t at 19 d.f. and χ² at 999 d.f., level 0.9.
func BenchmarkTUpper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := TUpper(0.05, 19)
		if err != nil {
			b.Fatal(err)
		}
		benchCrit = v
	}
}

func BenchmarkChiSquareUpper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := ChiSquareUpper(0.05, 999)
		if err != nil {
			b.Fatal(err)
		}
		benchCrit = v
	}
}
