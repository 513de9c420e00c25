package dist

import "testing"

// TestDeriveSeedDeterministic checks substream derivation is a pure function
// and distinct indices give distinct seeds (the property the parallel
// accuracy kernel's determinism guarantee rests on).
func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		s := DeriveSeed(1, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(1, %d) == DeriveSeed(1, %d)", i, j)
		}
		seen[s] = i
	}
	// Different roots give different substream seeds.
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("roots 1 and 2 collide at substream 0")
	}
}

// TestAdjacentSubstreamsDiffer checks that adjacent derived substreams
// produce decorrelated outputs.
func TestAdjacentSubstreamsDiffer(t *testing.T) {
	// Adjacent substreams must not emit identical sequences.
	x, y := NewRand(DeriveSeed(9, 0)), NewRand(DeriveSeed(9, 1))
	same := 0
	for k := 0; k < 64; k++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent substreams agree on %d/64 outputs", same)
	}
}

// TestReseedMatchesNewRand checks in-place reseeding reproduces a fresh
// generator exactly, including clearing the cached normal spare.
func TestReseedMatchesNewRand(t *testing.T) {
	r := NewRand(5)
	r.NormFloat64() // populate the spare so Reseed must clear it
	r.Reseed(11)
	fresh := NewRand(11)
	for k := 0; k < 8; k++ {
		if got, want := r.NormFloat64(), fresh.NormFloat64(); got != want {
			t.Fatalf("after Reseed: output %d = %v, want %v", k, got, want)
		}
	}
}
