package stream

import (
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
	c, err := s.Column("speed")
	if err != nil || !c.Probabilistic {
		t.Errorf("Column(speed) = %+v, %v", c, err)
	}
	if _, err := s.Column("nope"); err == nil {
		t.Error("Column(nope): want error")
	}
	proj, err := s.Project("p", "speed")
	if err != nil || proj.Arity() != 1 {
		t.Fatalf("Project: %v", err)
	}
	if _, err := s.Project("p", "ghost"); err == nil {
		t.Error("Project(ghost): want error")
	}
	ext, err := s.Extend("e", Column{Name: "extra"})
	if err != nil || ext.Arity() != 3 {
		t.Fatalf("Extend: %v", err)
	}
	if _, err := s.Extend("e", Column{Name: "id"}); err == nil {
		t.Error("Extend duplicate: want error")
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

func TestTupleFieldAndClone(t *testing.T) {
	s := testSchema(t)
	tp := speedTuple(t, s, 7, 60, 25, 10)
	f, err := tp.Field("speed")
	if err != nil || f.N != 10 {
		t.Fatalf("Field(speed) = %+v, %v", f, err)
	}
	if _, err := tp.Field("ghost"); err == nil {
		t.Error("Field(ghost): want error")
	}
	c := tp.Clone()
	c.Fields[0] = randvar.Det(99)
	if tp.Fields[0].Dist.Mean() == 99 {
		t.Error("Clone shares field slice")
	}
}

func TestCountWindow(t *testing.T) {
	w, err := NewCountWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCountWindow(0); err == nil {
		t.Error("size 0: want error")
	}
	s := testSchema(t)
	var evicted []*Tuple
	for i := 0; i < 5; i++ {
		tp := speedTuple(t, s, float64(i), 60, 25, 10)
		tp.Seq = uint64(i)
		if old := w.Push(tp); old != nil {
			evicted = append(evicted, old)
		}
	}
	if w.Len() != 3 || !w.Full() || w.Cap() != 3 {
		t.Fatalf("window state: len=%d full=%v", w.Len(), w.Full())
	}
	if len(evicted) != 2 || evicted[0].Seq != 0 || evicted[1].Seq != 1 {
		t.Fatalf("evicted: %v", evicted)
	}
	tuples := w.Tuples()
	for i, want := range []uint64{2, 3, 4} {
		if tuples[i].Seq != want {
			t.Errorf("window[%d].Seq = %d, want %d", i, tuples[i].Seq, want)
		}
	}
	var seen []uint64
	w.Do(func(tp *Tuple) { seen = append(seen, tp.Seq) })
	if len(seen) != 3 || seen[0] != 2 || seen[2] != 4 {
		t.Errorf("Do order: %v", seen)
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
