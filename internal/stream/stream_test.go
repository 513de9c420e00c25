package stream

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/randvar"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("s",
		Column{Name: "id"},
		Column{Name: "speed", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func speedTuple(t *testing.T, s *Schema, id float64, mu, s2 float64, n int) *Tuple {
	t.Helper()
	nd, err := dist.NewNormal(mu, s2)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTuple(s, []randvar.Field{randvar.Det(id), {Dist: nd, N: n}})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := NewSchema("x"); err == nil {
		t.Error("no columns: want error")
	}
	if _, err := NewSchema("x", Column{Name: "a"}, Column{Name: "A"}); err == nil {
		t.Error("case-insensitive duplicate: want error")
	}
	if _, err := NewSchema("x", Column{Name: ""}); err == nil {
		t.Error("empty column name: want error")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema(t)
	if i, ok := s.Index("SPEED"); !ok || i != 1 {
		t.Errorf("Index(SPEED) = %d, %v", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Error("Index(nope) should fail")
	}
	if got := s.String(); got != "s(id, speed DIST)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleValidation(t *testing.T) {
	s := testSchema(t)
	if _, err := NewTuple(nil, nil); err == nil {
		t.Error("nil schema: want error")
	}
	if _, err := NewTuple(s, []randvar.Field{randvar.Det(1)}); err == nil {
		t.Error("arity mismatch: want error")
	}
	if _, err := NewTuple(s, []randvar.Field{randvar.Det(1), {}}); err == nil {
		t.Error("invalid field: want error")
	}
	tp := speedTuple(t, s, 1, 60, 25, 10)
	if err := tp.Validate(); err != nil {
		t.Error(err)
	}
	tp.Prob = 1.5
	if tp.Validate() == nil {
		t.Error("prob > 1: want error")
	}
	tp.Prob = 0.5
	tp.ProbN = -1
	if tp.Validate() == nil {
		t.Error("negative ProbN: want error")
	}
}

// TestColumnWindowProbe pins the join's probe: only tuples still in the
// count window are visited, oldest first, keyed by the mean of any field
// kind, with pre, the tuple's bit-identical fields and post in order.
func TestColumnWindowProbe(t *testing.T) {
	s := testSchema(t)
	w, err := NewColumnWindow(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := dist.NewUniform(1, 3) // mean 2, kept as a distribution
	if err != nil {
		t.Fatal(err)
	}
	keys := []randvar.Field{randvar.Det(2), randvar.Det(2), {Dist: dist.Normal{Mu: 2, Sigma2: 1}, N: 4}, randvar.Det(5), {Dist: u, N: 3}}
	var pushed []*Tuple
	for i, k := range keys {
		tp := speedTuple(t, s, 0, 60+float64(i), 25, 10+i)
		tp.Fields[0] = k
		tp.Prob, tp.ProbN, tp.Seq, tp.Time = 1-float64(i)/10, i, uint64(100+i), int64(7*i)
		pushed = append(pushed, tp)
		w.Push(tp)
	}
	pre := []randvar.Field{randvar.Det(-1)}
	post := []randvar.Field{randvar.Det(-2), randvar.Det(-3)}
	var seen []uint64
	err = w.Probe(0, 2, pre, post, func(m *Tuple) error {
		p := pushed[m.Seq-100]
		want := append(append(append([]randvar.Field(nil), pre...), p.Fields...), post...)
		if len(m.Fields) != len(want) || m.Schema != nil {
			t.Fatalf("match %d: %d fields, schema %v; want %d fields, nil schema", m.Seq, len(m.Fields), m.Schema, len(want))
		}
		for i := range want {
			if m.Fields[i] != want[i] {
				t.Errorf("match %d field %d = %v, want %v", m.Seq, i, m.Fields[i], want[i])
			}
		}
		if m.Prob != p.Prob || m.ProbN != p.ProbN || m.Time != p.Time {
			t.Errorf("match %d: prob %v/%d time %d, want %v/%d %d", m.Seq, m.Prob, m.ProbN, m.Time, p.Prob, p.ProbN, p.Time)
		}
		seen = append(seen, m.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 and 101 were evicted; 103's key is 5.
	if len(seen) != 2 || seen[0] != 102 || seen[1] != 104 {
		t.Fatalf("probe visited %v, want [102 104]", seen)
	}
	stop := errors.New("stop")
	calls := 0
	if err := w.Probe(0, 2, nil, nil, func(*Tuple) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("probe after an error: err %v after %d calls, want stop after 1", err, calls)
	}
}

func TestAggregateGaussianFastPath(t *testing.T) {
	e := randvar.NewEvaluator(dist.NewRand(1))
	fields := make([]randvar.Field, 4)
	for i := range fields {
		nd, _ := dist.NewNormal(10, 4)
		fields[i] = randvar.Field{Dist: nd, N: 20}
	}
	res, err := Aggregate(e, Avg, fields)
	if err != nil {
		t.Fatal(err)
	}
	nd, ok := res.Field.Dist.(dist.Normal)
	if !ok {
		t.Fatalf("AVG of Gaussians should be Gaussian, got %T", res.Field.Dist)
	}
	approx(t, "AVG mean", nd.Mu, 10, 1e-12)
	approx(t, "AVG var", nd.Sigma2, 1, 1e-12) // 4·4/16
	if res.Field.N != 20 {
		t.Errorf("d.f. size = %d, want 20", res.Field.N)
	}

	sum, err := Aggregate(e, Sum, fields)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "SUM mean", sum.Field.Dist.Mean(), 40, 1e-12)
	approx(t, "SUM var", sum.Field.Dist.Variance(), 16, 1e-12)
}

func TestAggregateMinMaxCount(t *testing.T) {
	e := randvar.NewEvaluator(dist.NewRand(2))
	u1, _ := dist.NewUniform(0, 1)
	u2, _ := dist.NewUniform(0, 1)
	fields := []randvar.Field{{Dist: u1, N: 10}, {Dist: u2, N: 15}}
	mn, err := Aggregate(e, Min, fields)
	if err != nil {
		t.Fatal(err)
	}
	// E[min(U,U)] = 1/3.
	approx(t, "MIN mean", mn.Field.Dist.Mean(), 1.0/3, 0.05)
	mx, err := Aggregate(e, Max, fields)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "MAX mean", mx.Field.Dist.Mean(), 2.0/3, 0.05)
	cnt, err := Aggregate(e, Count, fields)
	if err != nil {
		t.Fatal(err)
	}
	if !cnt.Field.IsDet() || cnt.Field.Dist.Mean() != 2 {
		t.Errorf("COUNT = %v", cnt.Field)
	}
	if _, err := Aggregate(e, Avg, nil); err == nil {
		t.Error("empty aggregate: want error")
	}
	if _, err := Aggregate(e, AggKind(9), fields); err == nil {
		t.Error("unknown aggregate: want error")
	}
}

func TestParseAggKind(t *testing.T) {
	for s, want := range map[string]AggKind{"AVG": Avg, "sum": Sum, "COUNT": Count, "min": Min, "MAX": Max} {
		got, err := ParseAggKind(s)
		if err != nil || got != want {
			t.Errorf("ParseAggKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAggKind("MEDIAN"); err == nil {
		t.Error("unknown aggregate name: want error")
	}
}
