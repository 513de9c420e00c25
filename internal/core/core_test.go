package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/randvar"
	"repro/internal/stream"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

// newTestEngine builds an engine with a "traffic" stream carrying a
// deterministic road id and a probabilistic delay, mirroring Example 1.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := stream.NewSchema("traffic",
		stream.Column{Name: "road_id"},
		stream.Column{Name: "delay", Probabilistic: true},
		stream.Column{Name: "delay2", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	return e
}

// trafficTuple builds a tuple with normal delay distributions.
func trafficTuple(t *testing.T, e *Engine, road float64, mu1 float64, n1 int, mu2 float64, n2 int) *stream.Tuple {
	t.Helper()
	d1, err := dist.NewNormal(mu1, 100)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dist.NewNormal(mu2, 100)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.NewTuple("traffic", []randvar.Field{
		randvar.Det(road),
		{Dist: d1, N: n1},
		{Dist: d2, N: n2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestConfigNormalize(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Level != 0.9 || cfg.Method != AccuracyNone {
		// Method zero value is AccuracyNone by design; the engine's
		// default accuracy comes from explicit configuration.
		if cfg.Level != 0.9 {
			t.Errorf("default level = %v", cfg.Level)
		}
	}
	bad := []Config{
		{Level: 1.5},
		{Level: math.NaN()},
		{MonteCarloValues: 1},
		{HistogramBins: -1},
		{BootstrapResamples: 1},
		{MinProb: 2},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("config %d should fail normalization", i)
		}
		if _, err := NewEngine(c); err == nil {
			t.Errorf("config %d: NewEngine accepted it", i)
		}
	}
}

func TestRegisterAndLookupStreams(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Schema("TRAFFIC"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := e.Schema("ghost"); err == nil {
		t.Error("unknown stream: want error")
	}
	schema, _ := stream.NewSchema("traffic", stream.Column{Name: "x"})
	if err := e.RegisterStream(schema); err == nil {
		t.Error("duplicate registration: want error")
	}
	if err := e.RegisterStream(nil); err == nil {
		t.Error("nil schema: want error")
	}
	if got := e.Streams(); len(got) != 1 || got[0] != "traffic" {
		t.Errorf("Streams = %v", got)
	}
}

func TestLearnField(t *testing.T) {
	s := learn.NewSample([]float64{71, 56, 82, 74, 69, 77, 65, 78, 59, 80})
	f, err := LearnField(learn.GaussianLearner{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if f.N != 10 {
		t.Errorf("N = %d, want 10", f.N)
	}
	approx(t, "learned mean", f.Dist.Mean(), 71.1, 1e-9)
	if _, err := LearnField(nil, s); err == nil {
		t.Error("nil learner: want error")
	}
}

func TestCompileErrors(t *testing.T) {
	e := newTestEngine(t, Config{})
	bad := []string{
		"SELECT x FROM nosuch",
		"SELECT ghost FROM traffic",
		"SELECT AVG(delay) FROM traffic",                       // aggregate without window
		"SELECT AVG(delay), delay FROM traffic WINDOW 5 ROWS",  // mixed
		"SELECT delay FROM traffic WINDOW 5 ROWS",              // window without aggregate
		"SELECT AVG(delay, delay2) FROM traffic WINDOW 5 ROWS", // arity
		"SELECT MTEST(delay, '>', 1, 0.05) FROM traffic",       // predicate in select
		"SELECT * FROM traffic WINDOW 5 ROWS",
		"SELECT PROB(delay > 5) FROM traffic",                         // PROB outside comparison
		"SELECT delay FROM traffic WHERE PROB(delay) >= 0.5",          // PROB arg not cmp
		"SELECT delay FROM traffic WHERE PROB(delay > 5) >= 1.5",      // tau range
		"SELECT delay FROM traffic WHERE MTEST(delay, '>', 1)",        // missing alpha
		"SELECT delay FROM traffic WHERE MTEST(delay, '>=', 1, 0.05)", // bad test op
		"SELECT delay FROM traffic WHERE MTEST(1+1, '>', 1, 0.05)",    // non-column field
		"SELECT delay FROM traffic WHERE MTEST(delay, '>', 1, 2)",     // alpha range
		"SELECT delay FROM traffic WHERE MDTEST(delay, delay2, '>', 0, 0.05, 3)",
		"SELECT delay FROM traffic WHERE PTEST(delay, 0.5, 0.05)", // pred not cmp
		"SELECT delay + 'x' FROM traffic",                         // string in arithmetic
		"SELECT NOSUCHFN(delay) FROM traffic",
	}
	for _, qstr := range bad {
		if _, err := e.Compile(qstr); err == nil {
			t.Errorf("Compile(%q): want error", qstr)
		}
	}
}

func TestSelectStarPassthrough(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical})
	q, err := e.Compile("SELECT * FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	tp := trafficTuple(t, e, 19, 60, 3, 55, 50)
	res, err := q.Push(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Tuple.Schema.Arity() != 3 {
		t.Errorf("arity = %d", res[0].Tuple.Schema.Arity())
	}
	// Accuracy attached for probabilistic fields with n ≥ 2.
	if res[0].Fields["delay"] == nil || res[0].Fields["delay2"] == nil {
		t.Fatalf("missing accuracy info: %v", res[0].Fields)
	}
	if res[0].Fields["delay"].N != 3 {
		t.Errorf("delay accuracy n = %d, want 3", res[0].Fields["delay"].N)
	}
}

func TestProjectionAndRename(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id AS rid, delay FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 7, 60, 10, 55, 10))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	out := res[0].Tuple
	if _, ok := out.Schema.Index("rid"); !ok {
		t.Errorf("schema = %v", out.Schema)
	}
	approx(t, "rid", out.Fields[0].Dist.Mean(), 7, 0)
}

func TestExpressionSelectPropagatesDFSize(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical})
	// Example 4: (A+B)/2 with sample sizes 15 and 10 → d.f. size 10.
	q, err := e.Compile("SELECT (delay + delay2) / 2 AS avg2 FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 1, 60, 15, 40, 10))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	f := res[0].Tuple.Fields[0]
	if f.N != 10 {
		t.Errorf("d.f. size = %d, want 10 (Lemma 3)", f.N)
	}
	approx(t, "(A+B)/2 mean", f.Dist.Mean(), 50, 1e-9)
	// Gaussian inputs with a linear expression stay Gaussian.
	if _, ok := f.Dist.(dist.Normal); !ok {
		t.Errorf("linear Gaussian expression produced %T", f.Dist)
	}
	info := res[0].Fields["avg2"]
	if info == nil || info.N != 10 {
		t.Fatalf("accuracy info: %+v", info)
	}
}

func TestNonlinearExpressionMonteCarlo(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyBootstrap})
	q, err := e.Compile("SELECT SQRT(ABS(delay - delay2)) AS d FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 1, 60, 20, 40, 20))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	f := res[0].Tuple.Fields[0]
	if f.N != 20 {
		t.Errorf("d.f. size = %d", f.N)
	}
	// sqrt(|N(20,200)|) has mean ≈ sqrt(20) when σ ≪ μ.
	if f.Dist.Mean() < 3 || f.Dist.Mean() > 6 {
		t.Errorf("implausible mean %g", f.Dist.Mean())
	}
	// Bootstrap accuracy came from the Monte Carlo value sequence.
	info := res[0].Fields["d"]
	if info == nil || info.Method != "bootstrap" {
		t.Fatalf("bootstrap info: %+v", info)
	}
}

func TestPossibleWorldFilter(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical})
	// Example 5's shape: WHERE delay > c over a learned distribution turns
	// attribute uncertainty into tuple uncertainty with an interval.
	q, err := e.Compile("SELECT road_id FROM traffic WHERE delay > 60")
	if err != nil {
		t.Fatal(err)
	}
	tp := trafficTuple(t, e, 1, 60, 20, 40, 20) // P(delay > 60) = 0.5
	res, err := q.Push(tp)
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	out := res[0]
	approx(t, "tuple prob", out.Tuple.Prob, 0.5, 1e-9)
	if out.Tuple.ProbN != 20 {
		t.Errorf("ProbN = %d, want 20", out.Tuple.ProbN)
	}
	if out.TupleProb == nil {
		t.Fatal("missing tuple probability interval")
	}
	// 90% interval: 0.5 ± 1.645·sqrt(0.25/20) = 0.5 ± 0.184.
	approx(t, "prob interval lo", out.TupleProb.Lo, 0.316, 0.005)
	approx(t, "prob interval hi", out.TupleProb.Hi, 0.684, 0.005)
}

func TestImpossibleFilterDrops(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE delay > 1e9")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 1, 60, 20, 40, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("impossible filter emitted %d tuples", len(res))
	}
	if s := q.Stats(); s.Dropped != 1 || s.In != 1 || s.Out != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDeterministicFilter(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE road_id = 19")
	if err != nil {
		t.Fatal(err)
	}
	keep, err := q.Push(trafficTuple(t, e, 19, 60, 20, 40, 20))
	if err != nil || len(keep) != 1 {
		t.Fatalf("road 19 should pass: %v, %v", keep, err)
	}
	approx(t, "prob unchanged", keep[0].Tuple.Prob, 1, 0)
	drop, err := q.Push(trafficTuple(t, e, 20, 60, 20, 40, 20))
	if err != nil || len(drop) != 0 {
		t.Fatalf("road 20 should drop: %v, %v", drop, err)
	}
}

func TestProbThresholdPredicate(t *testing.T) {
	e := newTestEngine(t, Config{})
	// The introduction's query: both roads pass at τ = 2/3 when
	// P(delay > 50) ≥ 2/3 regardless of sample size.
	q, err := e.Compile("SELECT road_id FROM traffic WHERE PROB(delay > 50) >= 0.66")
	if err != nil {
		t.Fatal(err)
	}
	// N(60,100): P(>50) = 0.841 → passes; prob stays exact 1.
	res, err := q.Push(trafficTuple(t, e, 19, 60, 3, 40, 3))
	if err != nil || len(res) != 1 {
		t.Fatalf("pass case: %v, %v", res, err)
	}
	approx(t, "threshold keeps prob", res[0].Tuple.Prob, 1, 0)
	// N(45,100): P(>50) = 0.309 → drops.
	res, err = q.Push(trafficTuple(t, e, 20, 45, 50, 40, 50))
	if err != nil || len(res) != 0 {
		t.Fatalf("drop case: %v, %v", res, err)
	}
	// Flipped comparison: tau <= PROB(...).
	q2, err := e.Compile("SELECT road_id FROM traffic WHERE 0.66 <= PROB(delay > 50)")
	if err != nil {
		t.Fatal(err)
	}
	res, err = q2.Push(trafficTuple(t, e, 19, 60, 3, 40, 3))
	if err != nil || len(res) != 1 {
		t.Fatalf("flipped threshold: %v, %v", res, err)
	}
}

func TestSignificancePredicateSingle(t *testing.T) {
	e := newTestEngine(t, Config{})
	// Example 9: mTest(delay, '>', 97, 0.05).
	q, err := e.Compile("SELECT road_id FROM traffic WHERE MTEST(delay, '>', 97, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	// Strong evidence: N(110,100) with n=100.
	res, err := q.Push(trafficTuple(t, e, 1, 110, 100, 0, 10))
	if err != nil || len(res) != 1 {
		t.Fatalf("strong evidence: %v, %v", res, err)
	}
	// Weak evidence: same mean but n=3 → t-test fails.
	res, err = q.Push(trafficTuple(t, e, 2, 110, 3, 0, 10))
	if err != nil || len(res) != 0 {
		t.Fatalf("weak evidence should drop: %v, %v", res, err)
	}
}

func TestSignificancePredicateCoupled(t *testing.T) {
	e := newTestEngine(t, Config{}) // DropUnsure defaults false
	q, err := e.Compile("SELECT road_id FROM traffic WHERE MTEST(delay, '>', 97, 0.05, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	// Borderline: small n, mean barely above → UNSURE, kept and flagged.
	res, err := q.Push(trafficTuple(t, e, 1, 98, 5, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Unsure {
		t.Fatalf("unsure tuple should be kept and flagged: %v", res)
	}
	if q.Stats().Unsure != 1 {
		t.Errorf("stats = %+v", q.Stats())
	}
	// Strong negative → FALSE → dropped.
	res, err = q.Push(trafficTuple(t, e, 2, 50, 100, 0, 10))
	if err != nil || len(res) != 0 {
		t.Fatalf("false tuple should drop: %v, %v", res, err)
	}
}

func TestDropUnsureConfig(t *testing.T) {
	e := newTestEngine(t, Config{DropUnsure: true})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE MTEST(delay, '>', 97, 0.05, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 1, 98, 5, 0, 10))
	if err != nil || len(res) != 0 {
		t.Fatalf("unsure should drop when configured: %v, %v", res, err)
	}
	s := q.Stats()
	if s.Unsure != 1 || s.Dropped != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMDTestPredicate(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE MDTEST(delay, delay2, '>', 0, 0.05, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	// delay mean 80 ≫ delay2 mean 40 with good samples → TRUE.
	res, err := q.Push(trafficTuple(t, e, 1, 80, 50, 40, 50))
	if err != nil || len(res) != 1 {
		t.Fatalf("separated means: %v, %v", res, err)
	}
	// Reversed → FALSE → drop.
	res, err = q.Push(trafficTuple(t, e, 2, 40, 50, 80, 50))
	if err != nil || len(res) != 0 {
		t.Fatalf("reversed means: %v, %v", res, err)
	}
}

func TestPTestPredicate(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE PTEST(delay > 50, 0.5, 0.05)")
	if err != nil {
		t.Fatal(err)
	}
	// N(70,100): P(>50) = 0.977 with n=100 → clearly significant.
	res, err := q.Push(trafficTuple(t, e, 1, 70, 100, 0, 10))
	if err != nil || len(res) != 1 {
		t.Fatalf("significant: %v, %v", res, err)
	}
	// Example 8's X: P(>50) ≈ 0.6 with n=5 → not significant.
	res, err = q.Push(trafficTuple(t, e, 2, 52.5, 5, 0, 10))
	if err != nil || len(res) != 0 {
		t.Fatalf("insignificant: %v, %v", res, err)
	}
}

func TestLogicalCombinations(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE delay > 60 AND delay2 > 40")
	if err != nil {
		t.Fatal(err)
	}
	// P(delay>60) = 0.5, P(delay2>40) = 0.5 → joint 0.25.
	res, err := q.Push(trafficTuple(t, e, 1, 60, 20, 40, 30))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	approx(t, "AND prob", res[0].Tuple.Prob, 0.25, 1e-9)
	if res[0].Tuple.ProbN != 20 {
		t.Errorf("AND ProbN = %d, want min(20,30)", res[0].Tuple.ProbN)
	}

	qOr, err := e.Compile("SELECT road_id FROM traffic WHERE delay > 60 OR delay2 > 40")
	if err != nil {
		t.Fatal(err)
	}
	res, err = qOr.Push(trafficTuple(t, e, 1, 60, 20, 40, 30))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	approx(t, "OR prob", res[0].Tuple.Prob, 0.75, 1e-9)

	qNot, err := e.Compile("SELECT road_id FROM traffic WHERE NOT delay > 60")
	if err != nil {
		t.Fatal(err)
	}
	res, err = qNot.Push(trafficTuple(t, e, 1, 60, 20, 40, 30))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	approx(t, "NOT prob", res[0].Tuple.Prob, 0.5, 1e-9)
}

func TestWindowedAggregateQuery(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical})
	q, err := e.Compile("SELECT AVG(delay) FROM traffic WINDOW 4 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	var emitted []Result
	for i := 0; i < 6; i++ {
		res, err := q.Push(trafficTuple(t, e, float64(i), 60, 20, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, res...)
	}
	if len(emitted) != 3 { // outputs from the 4th tuple on
		t.Fatalf("emitted %d, want 3", len(emitted))
	}
	out := emitted[0]
	nd, ok := out.Tuple.Fields[0].Dist.(dist.Normal)
	if !ok {
		t.Fatalf("AVG of Gaussians = %T", out.Tuple.Fields[0].Dist)
	}
	approx(t, "window AVG mean", nd.Mu, 60, 1e-9)
	approx(t, "window AVG var", nd.Sigma2, 100.0/4, 1e-9)
	info := out.Fields["avg_delay"]
	if info == nil {
		t.Fatalf("missing accuracy on aggregate: %v", out.Fields)
	}
	if info.N != 20 {
		t.Errorf("aggregate accuracy n = %d, want 20", info.N)
	}
}

func TestMultipleAggregates(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT AVG(delay) AS a, SUM(delay2) AS s, COUNT(road_id) AS c FROM traffic WINDOW 2 ROWS")
	if err != nil {
		t.Fatal(err)
	}
	q.Push(trafficTuple(t, e, 1, 10, 20, 5, 20))
	res, err := q.Push(trafficTuple(t, e, 2, 20, 20, 7, 20))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	out := res[0].Tuple
	approx(t, "AVG", out.Fields[0].Dist.Mean(), 15, 1e-9)
	approx(t, "SUM", out.Fields[1].Dist.Mean(), 12, 1e-9)
	approx(t, "COUNT", out.Fields[2].Dist.Mean(), 2, 0)
}

func TestRunBatch(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	batch := []*stream.Tuple{
		trafficTuple(t, e, 1, 60, 20, 40, 20),
		trafficTuple(t, e, 2, 60, 20, 40, 20),
	}
	var res []Result
	for _, tp := range batch {
		r, err := q.Push(tp)
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r...)
	}
	if len(res) != 2 {
		t.Fatalf("results: %v", res)
	}
}

func TestPushWrongStream(t *testing.T) {
	e := newTestEngine(t, Config{})
	other, _ := stream.NewSchema("other", stream.Column{Name: "x"})
	if err := e.RegisterStream(other); err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile("SELECT road_id FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := stream.NewTuple(other, []randvar.Field{randvar.Det(1)})
	if _, err := q.Push(tp); err == nil {
		t.Error("wrong stream: want error")
	}
	if _, err := q.Push(nil); err == nil {
		t.Error("nil tuple: want error")
	}
}

func TestQueryStringAndSchema(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE delay > 50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "SELECT road_id FROM traffic") {
		t.Errorf("String = %q", q.String())
	}
	if q.OutSchema().Arity() != 1 {
		t.Errorf("out schema = %v", q.OutSchema())
	}
}

func TestMinProbConfig(t *testing.T) {
	e := newTestEngine(t, Config{MinProb: 0.4})
	q, err := e.Compile("SELECT road_id FROM traffic WHERE delay > 60")
	if err != nil {
		t.Fatal(err)
	}
	// P = 0.5 ≥ 0.4 → kept.
	res, err := q.Push(trafficTuple(t, e, 1, 60, 20, 0, 10))
	if err != nil || len(res) != 1 {
		t.Fatalf("0.5 ≥ MinProb: %v, %v", res, err)
	}
	// P ≈ 0.16 < 0.4 → dropped.
	res, err = q.Push(trafficTuple(t, e, 2, 50, 20, 0, 10))
	if err != nil || len(res) != 0 {
		t.Fatalf("0.16 < MinProb: %v, %v", res, err)
	}
}

func TestAccuracyNoneSkipsIntervals(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyNone})
	q, err := e.Compile("SELECT delay FROM traffic WHERE delay > 60")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 1, 60, 20, 0, 10))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	if res[0].Fields != nil || res[0].TupleProb != nil {
		t.Errorf("accuracy disabled but info present: %+v", res[0])
	}
}

func TestHistogramFieldBinAccuracy(t *testing.T) {
	e := newTestEngine(t, Config{Method: AccuracyAnalytical})
	schema, _ := stream.NewSchema("hists", stream.Column{Name: "temp", Probabilistic: true})
	if err := e.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	h, err := dist.HistogramFromCounts([]float64{0, 25, 50, 75, 100}, []int{3, 4, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.NewTuple("hists", []randvar.Field{{Dist: h, N: 20}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile("SELECT temp FROM hists")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(tp)
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	info := res[0].Fields["temp"]
	if info == nil || len(info.Bins) != 4 {
		t.Fatalf("histogram accuracy: %+v", info)
	}
	// Example 2's second bucket: (0.05, 0.35) at 90%.
	approx(t, "bin 2 lo", info.Bins[1].Interval.Lo, 0.05, 0.005)
	approx(t, "bin 2 hi", info.Bins[1].Interval.Hi, 0.35, 0.005)
}

func TestConstantExpression(t *testing.T) {
	e := newTestEngine(t, Config{})
	q, err := e.Compile("SELECT 2 + 3 * 4 AS k, road_id FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Push(trafficTuple(t, e, 9, 60, 20, 0, 10))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	approx(t, "constant", res[0].Tuple.Fields[0].Dist.Mean(), 14, 0)
}
