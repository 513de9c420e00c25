package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// routeWorkload binds every kind of query a stream can feed: a uniform
// analytical plan group whose members hand one emission on, a Monte Carlo
// group whose members each draw from their own evaluator, a bootstrap pair
// that shares only window state, a GROUP BY query, a scalar filter and a
// join with a second stream.
var routeWorkload = []string{
	"SELECT AVG(delay) AS a, COUNT(road_id) AS c FROM traffic WHERE delay > 55 WINDOW 8 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay) AS a, COUNT(road_id) AS c FROM traffic WHERE delay > 55 WINDOW 8 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay) AS a, COUNT(road_id) AS c FROM traffic WHERE delay > 55 WINDOW 8 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay) AS a, COUNT(road_id) AS c FROM traffic WHERE delay > 55 WINDOW 8 ROWS BACKEND ANALYTICAL",
	"SELECT AVG(delay) AS a, COUNT(road_id) AS c FROM traffic WHERE delay > 55 WINDOW 8 ROWS BACKEND ANALYTICAL",
	"SELECT MIN(delay) AS lo, MAX(delay2) AS hi FROM traffic WINDOW 5 ROWS",
	"SELECT MIN(delay) AS lo, MAX(delay2) AS hi FROM traffic WINDOW 5 ROWS",
	"SELECT MIN(delay) AS lo, MAX(delay2) AS hi FROM traffic WINDOW 5 ROWS",
	"SELECT AVG(delay2) AS b FROM traffic WINDOW 6 ROWS BACKEND BOOTSTRAP",
	"SELECT AVG(delay2) AS b FROM traffic WINDOW 6 ROWS BACKEND BOOTSTRAP",
	"SELECT road_id, AVG(delay) AS a FROM traffic GROUP BY road_id WINDOW 3 ROWS",
	"SELECT road_id, delay2 FROM traffic WHERE delay2 > 45",
	"SELECT traffic.delay, weather.rain FROM traffic JOIN weather ON road_id = road_id WINDOW 4 ROWS",
}

// routeBindOrder binds the shared engine's queries out of id order, so a
// group's member list (bind order) differs from the order ingest visits
// its members (id order).
var routeBindOrder = []int{7, 2, 12, 0, 9, 5, 11, 3, 8, 1, 10, 6, 4}

const routeTuples = 10000

// routeEngine returns an engine with the traffic stream and a weather
// stream that joins it on road_id, the whole workload compiled in statement
// order, and the queries at bind bound under queryID in the given order.
func routeEngine(t *testing.T, cfg Config, bind []int) (*Engine, []*Query) {
	t.Helper()
	e := newTestEngine(t, cfg)
	weather, err := stream.NewSchema("weather",
		stream.Column{Name: "road_id"},
		stream.Column{Name: "rain", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream(weather); err != nil {
		t.Fatal(err)
	}
	qs := compileAll(t, e, routeWorkload)
	for _, i := range bind {
		if err := e.Bind(queryID(i), qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return e, qs
}

func weatherRow(t *testing.T, i int) IngestRow {
	t.Helper()
	nd, err := dist.NewNormal(float64(i%11), 4)
	if err != nil {
		t.Fatal(err)
	}
	return IngestRow{Fields: []randvar.Field{randvar.Det(float64(i % 3)), {Dist: nd, N: 5 + i%6}}, Time: int64(i)}
}

// routeRun is everything one engine produced for the workload: per query id,
// every result and every error, held until the stream ends.
type routeRun struct {
	results map[string][]Result
	errs    map[string][]string
}

// feed ingests the whole stream into e: traffic in batches cycling through
// 1, 4 and 32 tuples, one weather tuple after each.
func (r *routeRun) feed(t *testing.T, e *Engine) {
	t.Helper()
	sizes := []int{1, 4, 32}
	collect := func(out []QueryResults) {
		for _, qr := range out {
			r.results[qr.ID] = append(r.results[qr.ID], qr.Results...)
			if qr.Err != nil {
				r.errs[qr.ID] = append(r.errs[qr.ID], qr.Err.Error())
			}
		}
	}
	for i, b := 0, 0; i < routeTuples; b++ {
		n := min(sizes[b%len(sizes)], routeTuples-i)
		rows := make([]IngestRow, n)
		for j := range rows {
			rows[j] = sharedRow(t, i+j)
		}
		i += n
		out, err := e.IngestBatch("traffic", rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		collect(out)
		if out, err = e.IngestBatch("weather", []IngestRow{weatherRow(t, b)}, nil); err != nil {
			t.Fatal(err)
		}
		collect(out)
	}
}

// stateBytes renders a query's checkpoint state the way a checkpoint keeps
// it: distributions through the codec, everything else as JSON.
func stateBytes(t *testing.T, q *Query) []byte {
	t.Helper()
	st := q.State()
	var b []byte
	add := func(v any) {
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, j...)
	}
	addDist := func(d dist.Distribution) {
		enc, err := codec.EncodeDistribution(d)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, enc...)
	}
	colWin := func(cs *stream.ColumnWindowState) {
		if cs == nil {
			return
		}
		add([]any{cs.Prob, cs.ProbN, cs.Seq, cs.Time})
		for _, c := range cs.Cols {
			add([]any{c.Kind, c.Mean, c.Var, c.N})
			slots := make([]int, 0, len(c.Other))
			for s := range c.Other {
				slots = append(slots, s)
			}
			sort.Ints(slots)
			for _, s := range slots {
				add(s)
				addDist(c.Other[s])
			}
		}
	}
	rowWin := func(ws *WindowState) {
		if ws == nil {
			return
		}
		for _, tp := range ws.Tuples {
			add([]any{tp.Prob, tp.ProbN, tp.Seq, tp.Time})
			for _, f := range tp.Fields {
				add(f.N)
				addDist(f.Dist)
			}
		}
	}
	add([]any{st.Eval, st.Boot, st.Stats})
	colWin(st.ColWindow)
	for _, g := range st.Groups {
		add(g.Key)
		colWin(g.ColWindow)
	}
	rowWin(st.JoinLeft)
	rowWin(st.JoinRight)
	return b
}

// TestRouteParity holds ingest of a mixed fleet on one stream to each query
// running alone: every result and error, STATS, telemetry, checkpoint
// state, and the plan groups' lead/follow tallies. Results are compared only
// after the whole stream, so an emission buffer reused under a result that
// was already handed out shows up as a mismatch.
func TestRouteParity(t *testing.T) {
	cfg := Config{Method: AccuracyAnalytical, Seed: 11, MonteCarloValues: 32, BootstrapResamples: 10, MinProb: 0.05}
	shared, qs := routeEngine(t, cfg, routeBindOrder)
	sharedRun := &routeRun{results: map[string][]Result{}, errs: map[string][]string{}}
	sharedRun.feed(t, shared)

	var emitted int
	for i := range routeWorkload {
		id := queryID(i)
		alone, aqs := routeEngine(t, cfg, []int{i})
		run := &routeRun{results: map[string][]Result{}, errs: map[string][]string{}}
		run.feed(t, alone)
		q, aq := qs[i], aqs[i]

		if !reflect.DeepEqual(sharedRun.errs[id], run.errs[id]) {
			t.Errorf("%s: errors diverged:\n  shared %q\n  alone  %q", id, sharedRun.errs[id], run.errs[id])
		}
		if a, b := sharedRun.results[id], run.results[id]; !reflect.DeepEqual(a, b) {
			t.Errorf("%s: results diverged (%d shared, %d alone)", id, len(a), len(b))
		}
		emitted += len(run.results[id])
		if a, b := q.Stats(), aq.Stats(); a != b {
			t.Errorf("%s: stats diverged: shared %+v, alone %+v", id, a, b)
		}
		if a, b := q.Telemetry(), aq.Telemetry(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: telemetry diverged:\n  shared %+v\n  alone  %+v", id, a, b)
		}
		if a, b := stateBytes(t, q), stateBytes(t, aq); string(a) != string(b) {
			t.Errorf("%s: checkpoint state diverged", id)
		}
		if g, ag := q.group, aq.group; g != nil {
			k := uint64(len(g.members))
			if g.leads.Load() != ag.leads.Load() || g.follows.Load() != (k-1)*ag.leads.Load() || ag.follows.Load() != 0 {
				t.Errorf("%s: group of %d led %d and followed %d times; alone it led %d and followed %d",
					id, k, g.leads.Load(), g.follows.Load(), ag.leads.Load(), ag.follows.Load())
			}
		}
	}
	// The workload must exercise what it claims: shared groups of 5, 3 and
	// 2 members, and emissions from every query.
	var sizes []int
	for _, i := range []int{0, 5, 8} {
		sizes = append(sizes, len(qs[i].group.members))
	}
	if fmt.Sprint(sizes) != "[5 3 2]" {
		t.Errorf("group sizes %v, want [5 3 2]", sizes)
	}
	for i := range routeWorkload {
		if len(sharedRun.results[queryID(i)]) == 0 {
			t.Errorf("%s emitted nothing", queryID(i))
		}
	}
	if emitted == 0 {
		t.Fatal("no results")
	}
}

// Allocation guards of the ingest path. parentSingleAllocs is what one
// single-query, single-tuple batch with a commit hook allocated before
// ingest walked a route (measured by TestIngestAllocs at that commit), and
// fanoutAllocSlack is the per-batch constant a plan group may spend on top
// of one allocation per member; the route measured 11 and 35.
const (
	parentSingleAllocs = 14
	fanoutAllocSlack   = 40
)

// TestIngestAllocs holds the allocations of one ingest batch in the two
// shapes the route serves: one private group fed a tuple at a time with a
// commit hook (the commit-single workload) may not allocate more than it did
// before the route, and a 128-member plan group fed batches of 4
// (fanout-shared) may allocate per batch, not per member push.
func TestIngestAllocs(t *testing.T) {
	single := benchMultiQueryEngine(t, 1, 8)
	row := []IngestRow{benchRow(t, 8)}
	commit := func() error { return nil }
	perSingle := testing.AllocsPerRun(200, func() {
		if _, err := single.IngestBatch("bench", row, commit); err != nil {
			t.Fatal(err)
		}
	})
	if perSingle > parentSingleAllocs {
		t.Errorf("single-query batch: %v allocations, want at most %d", perSingle, parentSingleAllocs)
	}
	fan := benchMultiQueryEngine(t, fanoutQueries, fanoutWindow)
	rows := fanoutRows(t)
	perFan := testing.AllocsPerRun(50, func() {
		if _, err := fan.IngestBatch("bench", rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perFan > fanoutQueries+fanoutAllocSlack {
		t.Errorf("%d-member batch of %d: %v allocations, want at most %d",
			fanoutQueries, fanoutBatch, perFan, fanoutQueries+fanoutAllocSlack)
	}
}

// TestPushInstrumentsPerMember: a plan group's step books one push, and one
// push-histogram observation, per member and tuple, counts every member's
// result, and adds one lead and members − 1 follows per tuple, so the
// process-global instruments read as if each member had pushed alone. The
// batch is not a whole number of chunks. EXPLAIN … TIMING keeps one window
// observation per admitted tuple and two aggregate observations per
// emission, the group's and the leader's assembly; the followers, handed the
// leader's emission, observe nothing.
func TestPushInstrumentsPerMember(t *testing.T) {
	const members, tuples = 16, 2*stream.AheadWidth + 3
	e := benchMultiQueryEngine(t, members, 8)
	qs := make([]*Query, members)
	for i := range qs {
		qs[i] = e.Bound(benchQueryID(i))
		qs[i].timing.Enable()
	}
	g := qs[0].group
	rows := make([]IngestRow, tuples)
	for i := range rows {
		rows[i] = benchRow(t, fanoutWindow+i)
	}
	pushes, results, observed := mPushes.Value(), mResults.Value(), hPush.Count()
	leads, follows := g.leads.Load(), g.follows.Load()
	out, err := e.IngestBatch("bench", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, qr := range out {
		n += uint64(len(qr.Results))
	}
	if want := uint64(members * tuples); n != want {
		t.Fatalf("%d results, want %d", n, want)
	}
	if d := mPushes.Value() - pushes; d != n {
		t.Errorf("push counter moved by %d, want %d", d, n)
	}
	if d := mResults.Value() - results; d != n {
		t.Errorf("result counter moved by %d, want %d", d, n)
	}
	if d := hPush.Count() - observed; d != n {
		t.Errorf("push histogram observed %d pushes, want %d", d, n)
	}
	if dl, df := g.leads.Load()-leads, g.follows.Load()-follows; dl != tuples || df != (members-1)*tuples {
		t.Errorf("group led %d and followed %d times, want %d and %d", dl, df, tuples, (members-1)*tuples)
	}
	for i, q := range qs {
		var want [plan.NumStages]uint64
		if i == 0 {
			want[plan.StageWindow], want[plan.StageAggregate], want[plan.StageAccuracy] = tuples, 2*tuples, tuples
		}
		for s, st := range q.timing.Snapshot() {
			if st.Count != want[s] {
				t.Errorf("member %d: %v stage observed %d times, want %d", i, plan.Stage(s), st.Count, want[s])
			}
		}
	}
}
