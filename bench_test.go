// Benchmarks regenerating each figure of the paper's evaluation (§V), plus
// micro-benchmarks of the primitives whose cost the paper discusses. The
// figure benches run the quick configuration of internal/experiments; run
// cmd/experiments for the full-size figures.
//
//	go test -bench=. -benchmem
package asdb

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/hypothesis"
	"repro/internal/learn"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// benchCfg is the reduced experiment configuration used by the figure
// benchmarks.
var benchCfg = experiments.Config{Quick: true, Seed: 7, Segments: 150}

// benchFigure wraps one figure regeneration as a benchmark.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper figure.

func BenchmarkFig4a(b *testing.B) { benchFigure(b, "4a") }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, "4b") }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, "4c") }
func BenchmarkFig4d(b *testing.B) { benchFigure(b, "4d") }
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "5a") }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "5b") }
func BenchmarkFig5d(b *testing.B) { benchFigure(b, "5d") }
func BenchmarkFig5e(b *testing.B) { benchFigure(b, "5e") }
func BenchmarkFig5g(b *testing.B) { benchFigure(b, "5g") }
func BenchmarkFig5h(b *testing.B) { benchFigure(b, "5h") }

// Figures 5(c) and 5(f) are themselves throughput measurements; the benches
// below expose the same pipelines as testing.B benchmarks so `go test
// -bench` reports the tuples/op cost directly. One bench per bar.

// benchWindowAvg measures the §V-C pipeline — learn a Gaussian from 20 raw
// points, push through a sliding-window AVG — under one accuracy method.
func benchWindowAvg(b *testing.B, method core.AccuracyMethod) {
	b.Helper()
	eng, err := core.NewEngine(core.Config{Method: method})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := stream.NewSchema("sensor", stream.Column{Name: "val", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		b.Fatal(err)
	}
	q, err := eng.Compile("SELECT AVG(val) FROM sensor WINDOW 1000 ROWS")
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRand(11)
	obs := make([]float64, 20)
	learner := learn.GaussianLearner{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range obs {
			obs[j] = 50 + 3*rng.NormFloat64()
		}
		f, err := core.LearnField(learner, learn.NewSample(obs))
		if err != nil {
			b.Fatal(err)
		}
		t, err := stream.NewTuple(schema, []randvar.Field{f})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Push(t); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 5(c): the three bars.

func BenchmarkFig5cQPOnly(b *testing.B)     { benchWindowAvg(b, core.AccuracyNone) }
func BenchmarkFig5cAnalytical(b *testing.B) { benchWindowAvg(b, core.AccuracyAnalytical) }
func BenchmarkFig5cBootstrap(b *testing.B)  { benchWindowAvg(b, core.AccuracyBootstrap) }

// benchWindowAvgWithPredicate layers a significance predicate over each
// window aggregate (Fig 5(f)).
func benchWindowAvgWithPredicate(b *testing.B, pred func(core.Result) error) {
	b.Helper()
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyNone})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := stream.NewSchema("sensor", stream.Column{Name: "val", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		b.Fatal(err)
	}
	q, err := eng.Compile("SELECT AVG(val) FROM sensor WINDOW 1000 ROWS")
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRand(13)
	obs := make([]float64, 20)
	learner := learn.GaussianLearner{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range obs {
			obs[j] = 50 + 3*rng.NormFloat64()
		}
		f, err := core.LearnField(learner, learn.NewSample(obs))
		if err != nil {
			b.Fatal(err)
		}
		t, err := stream.NewTuple(schema, []randvar.Field{f})
		if err != nil {
			b.Fatal(err)
		}
		results, err := q.Push(t)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if err := pred(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Fig 5(f): the four bars.

func BenchmarkFig5fNoPred(b *testing.B) {
	benchWindowAvgWithPredicate(b, func(core.Result) error { return nil })
}

func BenchmarkFig5fMTest(b *testing.B) {
	benchWindowAvgWithPredicate(b, func(r core.Result) error {
		f := r.Tuple.Fields[0]
		s, err := hypothesis.StatsFromDistribution(f.Dist, f.N)
		if err != nil {
			return err
		}
		_, err = hypothesis.CoupledMTest(s, hypothesis.Greater, 50, 0.05, 0.05)
		return err
	})
}

func BenchmarkFig5fMDTest(b *testing.B) {
	var prev *hypothesis.Stats
	benchWindowAvgWithPredicate(b, func(r core.Result) error {
		f := r.Tuple.Fields[0]
		s, err := hypothesis.StatsFromDistribution(f.Dist, f.N)
		if err != nil {
			return err
		}
		if prev != nil {
			if _, err := hypothesis.CoupledMDTest(s, *prev, hypothesis.Greater, 0, 0.05, 0.05); err != nil {
				return err
			}
		}
		prev = &s
		return nil
	})
}

func BenchmarkFig5fPTest(b *testing.B) {
	benchWindowAvgWithPredicate(b, func(r core.Result) error {
		f := r.Tuple.Fields[0]
		phat := 1 - f.Dist.CDF(50)
		_, err := hypothesis.CoupledPTest(phat, f.N, hypothesis.Greater, 0.8, 0.05, 0.05)
		return err
	})
}

// --- Micro-benchmarks of the primitives the paper's costs decompose into ---

func BenchmarkBinHeightIntervalWald(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BinHeightInterval(0.4, 50, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinHeightIntervalWilson(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BinHeightInterval(0.02, 50, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeanIntervalT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MeanInterval(50, 10, 20, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeanIntervalZ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MeanInterval(50, 10, 100, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVarianceInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := VarianceInterval(100, 20, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootstrapAccuracyInfo(b *testing.B) {
	rng := NewRand(3)
	nd, err := NewNormal(50, 25)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]float64, 400) // n=20, r=20 (Example 7 scale)
	for i := range values {
		values[i] = nd.Sample(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BootstrapAccuracyInfo(values, 20, 0.9, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoupledMTest(b *testing.B) {
	s := TestStats{Mean: 52, SD: 10, N: 20}
	for i := 0; i < b.N; i++ {
		if _, err := CoupledMTest(s, OpGreater, 50, 0.05, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussianLearn(b *testing.B) {
	rng := NewRand(5)
	obs := make([]float64, 20)
	for i := range obs {
		obs[i] = 50 + 3*rng.NormFloat64()
	}
	s := NewSample(obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(GaussianLearner{}, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryFilterPush measures the scalar filter path end to end.
func BenchmarkQueryFilterPush(b *testing.B) {
	eng, err := NewEngine(Config{Method: AccuracyAnalytical})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := NewSchema("s",
		Column{Name: "id"},
		Column{Name: "x", Probabilistic: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		b.Fatal(err)
	}
	q, err := eng.Compile("SELECT id FROM s WHERE x > 50")
	if err != nil {
		b.Fatal(err)
	}
	nd, err := NewNormal(55, 25)
	if err != nil {
		b.Fatal(err)
	}
	t, err := NewTuple(schema, []Field{Det(1), {Dist: nd, N: 20}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Push(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures SQL parsing of a predicate-heavy statement.
func BenchmarkParse(b *testing.B) {
	eng, err := NewEngine(Config{})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := NewSchema("s",
		Column{Name: "a", Probabilistic: true},
		Column{Name: "b", Probabilistic: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		b.Fatal(err)
	}
	stmt := "SELECT SQRT(ABS(a - b)) AS d FROM s WHERE MTEST(a, '>', 50, 0.05, 0.05) AND PROB(b > 10) >= 0.8"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapResamples is the ablation bench DESIGN.md calls out:
// bootstrap cost as a function of the d.f. resample count r.
func BenchmarkBootstrapResamples(b *testing.B) {
	rng := NewRand(9)
	nd, err := NewNormal(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{5, 20, 80} {
		values := make([]float64, 20*r)
		for i := range values {
			values[i] = nd.Sample(rng)
		}
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BootstrapAccuracyInfo(values, 20, 0.9, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigX1(b *testing.B) { benchFigure(b, "x1") }

// BenchmarkQueryJoinPush measures the symmetric window equi-join path.
func BenchmarkQueryJoinPush(b *testing.B) {
	eng, err := NewEngine(Config{})
	if err != nil {
		b.Fatal(err)
	}
	roads, err := NewSchema("roads", Column{Name: "rid"}, Column{Name: "delay", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	weather, err := NewSchema("weather", Column{Name: "rid"}, Column{Name: "rain", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(roads); err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(weather); err != nil {
		b.Fatal(err)
	}
	q, err := eng.Compile("SELECT roads.delay FROM roads JOIN weather ON rid = rid WINDOW 64 ROWS")
	if err != nil {
		b.Fatal(err)
	}
	nd, err := NewNormal(60, 100)
	if err != nil {
		b.Fatal(err)
	}
	// Preload the weather side so every roads push probes a full window.
	for k := 0; k < 64; k++ {
		t, err := eng.NewTuple("weather", []Field{Det(float64(k % 16)), {Dist: nd, N: 20}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Push(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := eng.NewTuple("roads", []Field{Det(float64(i % 16)), {Dist: nd, N: 20}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Push(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryGroupByPush measures the grouped sliding-window aggregate.
func BenchmarkQueryGroupByPush(b *testing.B) {
	eng, err := NewEngine(Config{})
	if err != nil {
		b.Fatal(err)
	}
	schema, err := NewSchema("s", Column{Name: "k"}, Column{Name: "x", Probabilistic: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		b.Fatal(err)
	}
	q, err := eng.Compile("SELECT k, AVG(x) FROM s GROUP BY k WINDOW 32 ROWS")
	if err != nil {
		b.Fatal(err)
	}
	nd, err := NewNormal(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := eng.NewTuple("s", []Field{Det(float64(i % 8)), {Dist: nd, N: 20}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Push(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantileInterval measures the order-statistic quantile CI.
func BenchmarkQuantileInterval(b *testing.B) {
	rng := NewRand(4)
	nd, err := NewNormal(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]float64, 100)
	for i := range obs {
		obs[i] = nd.Sample(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MedianInterval(obs, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaldVsWilson is the Lemma 1 ablation: the cost of the two bin
// interval constructions (the Wilson branch adds a handful of operations).
func BenchmarkWaldVsWilson(b *testing.B) {
	b.Run("wald", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BinHeightInterval(0.5, 100, 0.9); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wilson", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BinHeightInterval(0.01, 100, 0.9); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFigX2(b *testing.B) { benchFigure(b, "x2") }
func BenchmarkFigX3(b *testing.B) { benchFigure(b, "x3") }
