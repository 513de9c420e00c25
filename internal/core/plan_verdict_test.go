package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// verdictTuples builds n traffic tuples that rotate delay through a normal,
// a histogram and a discrete distribution with atoms at 50 and 60, so every
// comparison form meets CDF reads, point masses and non-Gaussian inputs.
func verdictTuples(t *testing.T, e *Engine, n int) []*stream.Tuple {
	t.Helper()
	h, err := dist.HistogramFromCounts([]float64{40, 50, 60, 70}, []int{3, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	atoms, err := dist.NewDiscrete([]float64{50, 60}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*stream.Tuple, n)
	for i := range out {
		nd, err := dist.NewNormal(45+float64(i%11), 90)
		if err != nil {
			t.Fatal(err)
		}
		nd2, err := dist.NewNormal(40+float64(i%7), 100)
		if err != nil {
			t.Fatal(err)
		}
		delay := randvar.Field{Dist: nd, N: 10 + i%5}
		switch i % 3 {
		case 1:
			delay = randvar.Field{Dist: h, N: 10}
		case 2:
			delay = randvar.Field{Dist: atoms, N: 12}
		}
		tp, err := e.NewTuple("traffic", []randvar.Field{randvar.Det(float64(i % 3)), delay, {Dist: nd2, N: 12}})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tp
	}
	return out
}

// TestAnalyzeVerdicts holds the planner's sharing rule to what the compiled
// query does for statements the rule settles before looking at the filter:
// each gets the verdict and EXPLAIN reason the rule gives it, and shapes the
// compiler refuses never reach the rule.
func TestAnalyzeVerdicts(t *testing.T) {
	const (
		perKey = "GROUP BY windows are per-key"
		timed  = "time windows are per-query: the shared pipeline slides count windows only"
	)
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 3})
	for _, name := range []string{"roads", "weather"} {
		s, err := stream.NewSchema(name, stream.Column{Name: "rid"}, stream.Column{Name: "v", Probabilistic: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterStream(s); err != nil {
			t.Fatal(err)
		}
	}

	// Statements without a plan group, or whose window the rule keeps
	// per query before looking at the filter.
	for _, c := range []struct {
		sql, reason string
	}{
		{"SELECT delay FROM traffic", ""},
		{"SELECT delay FROM traffic WHERE delay > 50", ""},
		{"SELECT roads.v FROM roads JOIN weather ON rid = rid WINDOW 4 ROWS", ""},
		{"SELECT AVG(delay) FROM traffic WINDOW 10 SECONDS", timed},
		{"SELECT road_id, AVG(delay) FROM traffic GROUP BY road_id WINDOW 4 ROWS", perKey},
		{"SELECT road_id, AVG(delay) FROM traffic WHERE delay > delay2 GROUP BY road_id WINDOW 4 ROWS", perKey},
	} {
		q, err := e.Compile(c.sql)
		if err != nil {
			t.Fatalf("compile %q: %v", c.sql, err)
		}
		if q.prof.Shareable || q.prof.Reason != c.reason {
			t.Errorf("%q: shareable=%v reason %q, want per-query with reason %q", c.sql, q.prof.Shareable, q.prof.Reason, c.reason)
		}
		if c.reason != "" && !strings.Contains(q.Explain(), "plan: per-query state — "+c.reason) {
			t.Errorf("%q: EXPLAIN lacks the reason:\n%s", c.sql, q.Explain())
		}
	}
	// Shapes the compiler refuses never reach the rule.
	for _, s := range []string{
		"SELECT AVG(delay) FROM traffic",
		"SELECT AVG(roads.v) FROM roads JOIN weather ON rid = rid WINDOW 4 ROWS",
		"SELECT AVG(delay) FROM traffic WHERE PTEST(PROB(delay > 50) >= 0.5, 0.5, 0.05) WINDOW 4 ROWS",
	} {
		if _, err := e.Compile(s); err == nil {
			t.Errorf("%q compiled", s)
		}
	}
}

// TestFilterShareable compiles every filter form over a count-windowed
// aggregate: every filter ruled shareable leaves its evaluator's RNG where it
// was over 10⁴ tuples, and every filter ruled out for drawing moves it and
// carries the drawing reason.
func TestFilterShareable(t *testing.T) {
	const draws = "filter may consume per-query randomness"
	e := newTestEngine(t, Config{Method: AccuracyAnalytical, Seed: 3})
	tuples := verdictTuples(t, e, 10000)
	for _, c := range []struct {
		filter string
		draws  bool
	}{
		{"", false},
		{"delay > 50", false},
		{"50 > delay", false},
		{"delay = -3", false},
		{"delay = 60", false},
		{"60 <> delay", false},
		{"NOT delay > 50", false},
		{"delay > 50 OR delay < 10", false},
		{"delay > 50 AND road_id = 1", false},
		{"PROB(delay > 50) >= 0.8", false},
		{"0.8 <= PROB(delay = 60)", false},
		{"MTEST(delay, '>', 50, 0.05)", false},
		{"MTEST(delay, '<>', 50, 0.05, 0.1)", false},
		{"MDTEST(delay, delay2, '>', 0, 0.05)", false},
		{"KSTEST(delay, delay2, 0.05)", false},
		{"KSTEST(delay, delay2, 0.1, 0.05, 0.05)", false},
		{"PTEST(delay > 50, 0.5, 0.05)", false},
		{"PTEST(delay <> 60, 0.5, 0.05, 0.1)", false},

		{"delay > delay2", true},
		{"delay + 1 > 50", true},
		{"PROB(delay > delay2) >= 0.8", true},
		{"PTEST(delay > delay2, 0.5, 0.05)", true},
		{"delay > 50 AND delay > delay2", true},
	} {
		sql := "SELECT AVG(delay) AS a FROM traffic WINDOW 4 ROWS"
		if c.filter != "" {
			sql = "SELECT AVG(delay) AS a FROM traffic WHERE " + c.filter + " WINDOW 4 ROWS"
		}
		q, err := e.Compile(sql)
		if err != nil {
			t.Fatalf("compile %q: %v", sql, err)
		}
		if q.prof.Shareable == c.draws || c.draws && q.prof.Reason != draws {
			t.Errorf("%q: shareable=%v reason %q, want shareable=%v", c.filter, q.prof.Shareable, q.prof.Reason, !c.draws)
		}
		if q.where == nil {
			continue
		}
		in := tuples
		if c.draws {
			in = tuples[:100] // a third of them histograms
		}
		states := make([]dist.RandState, 0, len(in)+1)
		states = append(states, q.ev.RNG().State())
		for _, tp := range in {
			q.where(q.ev, tp) // errors (e.g. a test's UNSURE input) draw nothing either
			states = append(states, q.ev.RNG().State())
		}
		moved := 0
		for _, s := range states[1:] {
			if s != states[0] {
				moved++
			}
		}
		switch {
		case !c.draws && moved > 0:
			t.Errorf("%q is ruled shareable but moved the evaluator's RNG on %d of %d tuples", c.filter, moved, len(in))
		case c.draws && moved == 0:
			t.Errorf("%q is ruled out for drawing but never moved the evaluator's RNG", c.filter)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := planKey{Stream: "traffic", Rows: 4, Backend: "analytical"}
	if got := k.String(); got != "stream=traffic rows=4 backend=analytical" {
		t.Errorf("planKey.String() = %q", got)
	}
	k.Filter = "(delay > 50)"
	k.Sig = "a:1:AVG"
	s := k.String()
	for _, want := range []string{`filter="(delay > 50)"`, "aggs=a:1:AVG"} {
		if !strings.Contains(s, want) {
			t.Errorf("planKey.String() = %q, missing %q", s, want)
		}
	}
}

func TestStageTimer(t *testing.T) {
	var st stageTimer
	if st.Enabled() {
		t.Fatal("timer enabled before Enable")
	}
	st.Enable()
	if !st.Enabled() {
		t.Fatal("timer not enabled after Enable")
	}
	st.Observe(stageFilter, 5*time.Nanosecond)
	st.Observe(stageFilter, 7*time.Nanosecond)
	st.Observe(stageAccuracy, time.Microsecond)
	snap := st.Snapshot()
	if snap[stageFilter].Count != 2 || snap[stageFilter].Nanos != 12 {
		t.Errorf("filter stage = %+v, want 2 runs / 12 ns", snap[stageFilter])
	}
	if snap[stageWindow].Count != 0 {
		t.Errorf("window stage = %+v, want empty", snap[stageWindow])
	}
	if snap[stageAccuracy].Nanos != 1000 {
		t.Errorf("accuracy stage = %+v, want 1000 ns", snap[stageAccuracy])
	}
	for s := stageFilter; s < numStages; s++ {
		if s.String() == "" {
			t.Errorf("stage %d has no name", s)
		}
	}
}
