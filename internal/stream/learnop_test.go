package stream

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/randvar"
)

func rawSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("raw",
		Column{Name: "segment_id"},
		Column{Name: "delay"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rawTuple(t *testing.T, s *Schema, key, val float64, ts int64) *Tuple {
	t.Helper()
	tp, err := NewTuple(s, []randvar.Field{randvar.Det(key), randvar.Det(val)})
	if err != nil {
		t.Fatal(err)
	}
	tp.Time = ts
	return tp
}

func TestNewLearnOpValidation(t *testing.T) {
	s := rawSchema(t)
	if _, err := NewLearnOp(s, "ghost", "delay", 10); err == nil {
		t.Error("bad key column: want error")
	}
	if _, err := NewLearnOp(s, "segment_id", "ghost", 10); err == nil {
		t.Error("bad value column: want error")
	}
	if _, err := NewLearnOp(s, "segment_id", "delay", 1); err == nil {
		t.Error("buffer size 1: want error")
	}
	probSchema, _ := NewSchema("p",
		Column{Name: "k", Probabilistic: true},
		Column{Name: "v"},
	)
	if _, err := NewLearnOp(probSchema, "k", "v", 10); err == nil {
		t.Error("probabilistic key: want error")
	}
}

func TestLearnOpEmitsLearnedTuples(t *testing.T) {
	s := rawSchema(t)
	op, err := NewLearnOp(s, "segment_id", "delay", 10)
	if err != nil {
		t.Fatal(err)
	}
	// First observation: below MinSamples, nothing emitted.
	out, err := op.Process(rawTuple(t, s, 19, 56, 1))
	if err != nil || len(out) != 0 {
		t.Fatalf("first observation: %v, %v", out, err)
	}
	// Second: learning kicks in (paper Figure 1's road 19 shape).
	out, err = op.Process(rawTuple(t, s, 19, 38, 2))
	if err != nil || len(out) != 1 {
		t.Fatalf("second observation: %v, %v", out, err)
	}
	f := out[0].Fields[1]
	if f.N != 2 {
		t.Errorf("learned N = %d, want 2", f.N)
	}
	if math.Abs(f.Dist.Mean()-47) > 1e-9 {
		t.Errorf("learned mean = %g, want 47", f.Dist.Mean())
	}
	// Third observation for road 19 and an interleaved road 20.
	out, err = op.Process(rawTuple(t, s, 19, 97, 3))
	if err != nil || len(out) != 1 || out[0].Fields[1].N != 3 {
		t.Fatalf("third observation: %v, %v", out, err)
	}
	approxStream(t, "road 19 mean", out[0].Fields[1].Dist.Mean(), (56+38+97)/3.0, 1e-9)
	out, err = op.Process(rawTuple(t, s, 20, 72, 4))
	if err != nil || len(out) != 0 {
		t.Fatalf("road 20 first: %v, %v", out, err)
	}
	if len(op.buffers) != 2 {
		t.Errorf("keys = %d, want 2", len(op.buffers))
	}
	// Output schema shape.
	if op.out.Arity() != 2 || !op.out.Columns[1].Probabilistic {
		t.Errorf("out schema = %v", op.out)
	}
}

func approxStream(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", name, got, want)
	}
}

func TestLearnOpSlidingBuffer(t *testing.T) {
	s := rawSchema(t)
	op, err := NewLearnOp(s, "segment_id", "delay", 3)
	if err != nil {
		t.Fatal(err)
	}
	var last *Tuple
	for i, v := range []float64{10, 20, 30, 40, 50} {
		out, err := op.Process(rawTuple(t, s, 1, v, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 1 {
			last = out[0]
		}
	}
	// Buffer holds {30, 40, 50}: mean 40, N=3.
	if last.Fields[1].N != 3 {
		t.Errorf("N = %d, want 3", last.Fields[1].N)
	}
	approxStream(t, "sliding mean", last.Fields[1].Dist.Mean(), 40, 1e-9)
}

func TestLearnOpRejectsProbabilisticValues(t *testing.T) {
	s, _ := NewSchema("raw2",
		Column{Name: "k"},
		Column{Name: "v", Probabilistic: true},
	)
	op, err := NewLearnOp(s, "k", "v", 5)
	if err != nil {
		t.Fatal(err)
	}
	nd, _ := dist.NewNormal(0, 1)
	tp, _ := NewTuple(s, []randvar.Field{randvar.Det(1), {Dist: nd, N: 5}})
	if _, err := op.Process(tp); err == nil {
		t.Error("probabilistic raw value: want error")
	}
}

func TestLearnOpCustomLearner(t *testing.T) {
	s := rawSchema(t)
	op, err := NewLearnOp(s, "segment_id", "delay", 10)
	if err != nil {
		t.Fatal(err)
	}
	op.Learner = learn.EmpiricalLearner{}
	op.Process(rawTuple(t, s, 1, 5, 1))
	out, err := op.Process(rawTuple(t, s, 1, 7, 2))
	if err != nil || len(out) != 1 {
		t.Fatal(err)
	}
	if _, ok := out[0].Fields[1].Dist.(*dist.Discrete); !ok {
		t.Errorf("custom learner ignored: %T", out[0].Fields[1].Dist)
	}
}

// TestLearnOpDecayTracksDrift: with HalfLife set, the learned mean follows
// a drifting signal more closely and the emitted N is the (smaller)
// effective sample size.
func TestLearnOpDecayTracksDrift(t *testing.T) {
	s := rawSchema(t)
	plain, err := NewLearnOp(s, "segment_id", "delay", 50)
	if err != nil {
		t.Fatal(err)
	}
	decayed, err := NewLearnOp(s, "segment_id", "delay", 50)
	if err != nil {
		t.Fatal(err)
	}
	decayed.HalfLife = 5
	var lastPlain, lastDecayed *Tuple
	// The signal ramps from 0 to 49.
	for i := 0; i < 50; i++ {
		v := float64(i)
		out, err := plain.Process(rawTuple(t, s, 1, v, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 1 {
			lastPlain = out[0]
		}
		out, err = decayed.Process(rawTuple(t, s, 1, v, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 1 {
			lastDecayed = out[0]
		}
	}
	pm := lastPlain.Fields[1].Dist.Mean()   // ≈ 24.5 (all-history mean)
	dm := lastDecayed.Fields[1].Dist.Mean() // pulled toward 49
	if !(dm > pm) {
		t.Errorf("decayed mean %g should exceed plain %g under upward drift", dm, pm)
	}
	if dm < 40 {
		t.Errorf("decayed mean %g should track the recent level ≈ 45+", dm)
	}
	if lastDecayed.Fields[1].N >= lastPlain.Fields[1].N {
		t.Errorf("effective N %d should be below plain N %d",
			lastDecayed.Fields[1].N, lastPlain.Fields[1].N)
	}
}
