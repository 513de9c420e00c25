package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// The window pin suite fixes what every exact aggregate window emits — value
// for value, error for error — over long seeded streams, so the storage
// behind those windows can be replaced without any client-visible change.
//
// Each case binds a few continuous queries to one engine, ingests pinTuples
// seeded tuples in small batches, holds every result until the stream ends
// (a window that aliases a caller's buffer corrupts results it has already
// handed out, which an assert-as-you-go test never sees), and only then
// encodes each result with EncodeResult and folds the JSON into one SHA-256.
// Twice mid-stream the engine is captured, encoded, decoded and restored
// into a fresh engine that carries on, so the digest also covers what a
// checkpoint keeps of each window.
//
// One digest is asserted for two engine configurations that must not change
// an output bit: every query bound to one engine, so the planner shares what
// it can, and unshared — each query bound alone to an engine that compiles
// the whole case, so evaluator seeds and tuple sequence numbers are the
// same.
//
// The first six cases' digests were generated at commit bd57fee, the last
// engine that could also store these windows as rows of *Tuple (time windows
// always, count windows behind an option); there the row engine was held to
// the same digests. The rest are dated where they start. All are constants:
// a digest that no longer matches is a behaviour change, not a reason to
// regenerate.
const pinTuples = 10000

// pinSpan is the WINDOW n SECONDS width the timed cases use; the generator
// shapes its timestamps around it.
const pinSpan = 20

type pinCase struct {
	name string
	sql  []string
	// timed selects the timestamp pattern of the SECONDS cases: runs of
	// equal times, steps that leave a tuple exactly pinSpan old, gaps that
	// evict most or all of the window at once, bursts that grow it, and an
	// out-of-order arrival now and then followed by in-order ones.
	timed bool
	// hist makes v a histogram on every row, in the shape the kernel-mc
	// benchmark workload sends, so AVG and SUM never take the closed form.
	hist bool
	// mixed draws v and w from every kind the Monte Carlo path samples:
	// Normal, Point, histograms of five and of forty buckets, Discrete with
	// up to eight points, Uniform and two-component Mixture.
	mixed bool
	// dropUnsure and minProb set the engine's WHERE policy.
	dropUnsure bool
	minProb    float64
	// want holds one digest per engine accuracy method the case runs under.
	want map[core.AccuracyMethod]string
}

var pinCases = []pinCase{
	{
		name: "rows-avg-sum-count",
		sql: []string{
			"SELECT AVG(w) AS a, SUM(w) AS s, COUNT(k) AS c FROM s WINDOW 64 ROWS",
			"SELECT AVG(w) AS a, SUM(w) AS s, COUNT(k) AS c FROM s WINDOW 64 ROWS",
			"SELECT SUM(w) AS s2, AVG(v) AS av FROM s WINDOW 64 ROWS",
			"SELECT AVG(v) AS a, SUM(v) AS s FROM s WINDOW 4 ROWS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "defc147b2ade27f9f8aa1b2818e354b4d474995d92282c321378b9b79238eaee",
			core.AccuracyBootstrap:  "ca26972d827d00bd56d197a207667f79d6b9eb0ace5a898430731a76a3fb007d",
		},
	},
	{
		name: "rows-min-max",
		sql: []string{
			"SELECT MIN(v) AS lo, MAX(w) AS hi FROM s WINDOW 6 ROWS",
			"SELECT MIN(v) AS lo, MAX(w) AS hi FROM s WINDOW 6 ROWS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "f854f4dcb1ff90ba02a634d75e8b52c164d54a970e3f0cbc714504fa50143279",
			core.AccuracyBootstrap:  "28f82c87b85671b201a0403d9d8b8d359207be7a4ac237c5242dc83adf5a03a7",
		},
	},
	{
		name: "rows-where",
		sql: []string{
			"SELECT AVG(w) AS a, COUNT(k) AS c FROM s WHERE v > 55 WINDOW 16 ROWS",
			"SELECT AVG(w) AS a, COUNT(k) AS c FROM s WHERE v > 55 WINDOW 16 ROWS",
			"SELECT SUM(v) AS s FROM s WHERE k <> 2 AND w > 50 WINDOW 3 ROWS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "5fae1b20cea7fade92066022eb613a9e0ec0e8fb6e815303b8712d754eff2032",
			core.AccuracyBootstrap:  "30d87f6f5e7dfce407179df87243755d86a583775053a56a76a3d442651a9561",
		},
	},
	{
		name: "group-rows",
		sql: []string{
			"SELECT k, AVG(v) AS a, SUM(w) AS s, COUNT(k) AS c FROM s GROUP BY k WINDOW 5 ROWS",
			"SELECT k, MIN(w) AS lo FROM s GROUP BY k WINDOW 3 ROWS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "0a5d8e898880e7a3c2f414688e504a001fde6a9f73dd478810d0a646963abc34",
			core.AccuracyBootstrap:  "fc2d3bb36054a6eb2f1fadef912ba85fb706868c1863d0202e8ee46fd0e12475",
		},
	},
	{
		name:  "seconds",
		timed: true,
		sql: []string{
			"SELECT AVG(w) AS a, SUM(w) AS s, COUNT(k) AS c FROM s WINDOW 20 SECONDS",
			"SELECT AVG(v) AS a, MAX(v) AS hi FROM s WINDOW 5 SECONDS",
			"SELECT SUM(w) AS s FROM s WHERE v > 55 WINDOW 20 SECONDS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "cc001bbf745b070e4a9d64e7c0994c0bd835adc8edccfbae9be7683b3a4f4367",
			core.AccuracyBootstrap:  "365db436e1e00f6c95a0005c7217c9795fd7be9c877db1b7851553bea8110619",
		},
	},
	{
		name:  "group-seconds",
		timed: true,
		sql: []string{
			"SELECT k, AVG(w) AS a, COUNT(k) AS c FROM s GROUP BY k WINDOW 20 SECONDS",
			"SELECT k, AVG(v) AS a, MIN(v) AS lo FROM s GROUP BY k WINDOW 6 SECONDS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "41eff853a541564d91765d10ffad8ad284f62c44efa0b6876eacb22f547679df",
			core.AccuracyBootstrap:  "f706427c53d4efb49f022ab98dcc756485ac4f052e5a3daeb963234bc2102eed",
		},
	},

	// The cases below pin the rest of what a per-query push path served. They
	// were generated at commit 264d5d9, the last engine with that second path,
	// where the unshared configuration disabled planner sharing and so ran
	// every query through it.
	{
		name: "where-random",
		sql: []string{
			"SELECT AVG(w) AS a, MIN(v) AS lo FROM s WHERE v > w WINDOW 8 ROWS",
			"SELECT AVG(w) AS a, MIN(v) AS lo FROM s WHERE v > w WINDOW 8 ROWS",
			"SELECT k, SUM(v) AS s FROM s WHERE w > v GROUP BY k WINDOW 4 ROWS",
			"SELECT k, v FROM s WHERE v > w",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "d11e4256b2e2cddd82628acfc51aa99db1c140ba5e3fa35743b2d212dc72312e",
			core.AccuracyBootstrap:  "32ba28698635ddbac5402e258961228afcffc2dad19de3a01bb12dc9912bdd5f",
		},
	},
	{
		name: "mtest-keep-unsure",
		sql: []string{
			"SELECT AVG(v) AS a, COUNT(k) AS c FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05) WINDOW 8 ROWS",
			"SELECT AVG(v) AS a, COUNT(k) AS c FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05) WINDOW 8 ROWS",
			"SELECT k, MAX(v) AS hi FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05) GROUP BY k WINDOW 3 ROWS",
			"SELECT k, w FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05)",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "a4e55fc53419c4199c16bd82cd8db5b8cd0b50ac18c024d679d6594cfc2f7323",
			core.AccuracyBootstrap:  "4e031d45226468269764af2358d326cecd60a59bb412fd4bc27da080f8bb4c9f",
		},
	},
	{
		name:       "mtest-drop-unsure",
		dropUnsure: true,
		sql: []string{
			"SELECT AVG(v) AS a, COUNT(k) AS c FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05) WINDOW 8 ROWS",
			"SELECT AVG(v) AS a, COUNT(k) AS c FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05) WINDOW 8 ROWS",
			"SELECT k, MAX(v) AS hi FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05) GROUP BY k WINDOW 3 ROWS",
			"SELECT k, w FROM s WHERE MTEST(w, '>', 45, 0.05, 0.05)",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "f90e829c7e7d2afab36a5952cb5ee4b6327bc7fce4ddf72572a79e484e293498",
			core.AccuracyBootstrap:  "ab1aa0183de1dbd08e18a9197ea7b4353fe88d8d0209836bb304877d71473ae4",
		},
	},
	{
		name:    "min-prob",
		minProb: 0.35,
		sql: []string{
			"SELECT AVG(w) AS a, SUM(v) AS s FROM s WHERE v > 55 WINDOW 6 ROWS",
			"SELECT AVG(w) AS a, SUM(v) AS s FROM s WHERE v > 55 WINDOW 6 ROWS",
			"SELECT k, AVG(v) AS a, MIN(w) AS lo FROM s WHERE w > 45 GROUP BY k WINDOW 3 ROWS",
			"SELECT k, v FROM s WHERE w > 45",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "219391fa91fbceae4de3d87480bb6e15d3607ef5ae5bc9a5c60e5e5edc3182b9",
			core.AccuracyBootstrap:  "37cb20d1e38b34e9d70f4ea7b455340b1687fff6c087a693023e69e924bbde92",
		},
	},
	{
		name:  "accuracy-none",
		timed: true,
		sql: []string{
			"SELECT AVG(w) AS a, COUNT(k) AS c FROM s WHERE v > 55 WINDOW 16 ROWS",
			"SELECT AVG(w) AS a, COUNT(k) AS c FROM s WHERE v > 55 WINDOW 16 ROWS",
			"SELECT AVG(v) AS a, MAX(w) AS hi FROM s WINDOW 5 ROWS",
			"SELECT k, SUM(w) AS s, MIN(v) AS lo FROM s GROUP BY k WINDOW 6 SECONDS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyNone: "2edb55b2f0d79c9d40a18e5ba43f6bb8463bf1cd7b3f55ba1a7b0ff5f390c663",
		},
	},
	// BACKEND SKETCH overrides the engine's method, so one method suffices.
	{
		name: "sketch",
		sql: []string{
			"SELECT AVG(w) AS a, SUM(v) AS s, COUNT(k) AS c, MIN(v) AS lo, MAX(w) AS hi FROM s WINDOW 64 ROWS BACKEND SKETCH",
			"SELECT AVG(v) AS a, MAX(v) AS hi FROM s WHERE w > 45 WINDOW 4 ROWS BACKEND SKETCH",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "0d8318244a0df016f4c6baa93390f30a573cceff48693727516ad767f895c8bb",
		},
	},
	{
		name: "sketch-duplicated",
		sql: []string{
			"SELECT AVG(w) AS a, SUM(v) AS s, COUNT(k) AS c, MIN(v) AS lo, MAX(w) AS hi FROM s WINDOW 64 ROWS BACKEND SKETCH",
			"SELECT AVG(w) AS a, SUM(v) AS s, COUNT(k) AS c, MIN(v) AS lo, MAX(w) AS hi FROM s WINDOW 64 ROWS BACKEND SKETCH",
			"SELECT AVG(w) AS a, COUNT(k) AS c FROM s WHERE v > 55 WINDOW 16 ROWS BACKEND SKETCH",
			"SELECT AVG(w) AS a, COUNT(k) AS c FROM s WHERE v > 55 WINDOW 16 ROWS BACKEND SKETCH",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "dc6f3c44437e3be7fba36e2d6c157ded5d488fc05514ee01b1e79dbe0e65f576",
		},
	},

	// Generated at commit 01b6be3, whose histogram sampler picked a bucket by
	// walking the running sum with an early exit.
	{
		name: "histogram-rows",
		hist: true,
		sql: []string{
			"SELECT AVG(v) AS a FROM s WINDOW 32 ROWS BACKEND BOOTSTRAP",
			"SELECT AVG(v) AS a, SUM(v) AS s FROM s WINDOW 32 ROWS",
			"SELECT AVG(v) AS a, SUM(v) AS s FROM s WINDOW 32 ROWS",
			"SELECT MIN(v) AS lo, MAX(v) AS hi FROM s WINDOW 32 ROWS",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "be845aa494e885042f5282f63c5fd1a58a175f5ae82afd8004fa7188b10286b6",
			core.AccuracyBootstrap:  "d84040991fe9e655f29b271421f7a2fd15ab9ae92c0bdfde052ab7d01184c64a",
		},
	},

	// Generated at commit 5d678d4, whose Monte Carlo path drew every input
	// through Distribution.Sample, one draw at a time.
	{
		name:  "mixed-kinds",
		mixed: true,
		sql: []string{
			"SELECT MIN(v) AS lo, MAX(w) AS hi FROM s WINDOW 12 ROWS",
			"SELECT AVG(v) AS a, SUM(w) AS s FROM s WINDOW 12 ROWS",
			"SELECT AVG(v) AS a, SUM(w) AS s FROM s WINDOW 12 ROWS",
			"SELECT k, MAX(v) AS hi, AVG(w) AS a, MIN(w) AS lo FROM s GROUP BY k WINDOW 4 ROWS",
			"SELECT k, v * w AS p, SQRT(ABS(v - w)) AS d FROM s",
		},
		want: map[core.AccuracyMethod]string{
			core.AccuracyAnalytical: "a8c784c1c1b7d148541c8d83bd8878ce0b23fdb2e58a9b6b1f33a2acf28d13a7",
			core.AccuracyBootstrap:  "e6036d9ea998ff9f1ccc9264293db59f443d2234a803617b6405f8aa992c5f8b",
		},
	},
}

// pinGen produces the seeded input stream: k is a deterministic group key,
// v is Normal or Point with a histogram every fifth row (so aggregates over
// it move in and out of the Gaussian closed form) or, with hist, a histogram
// on every row, and w is always Normal or Point.
type pinGen struct {
	rng   *rand.Rand
	timed bool
	hist  bool
	mixed bool
	i     int
	now   int64
	burst int
}

func (g *pinGen) row(t *testing.T) core.IngestRow {
	t.Helper()
	r := g.rng
	gaussian := func(lo float64) randvar.Field {
		n := 5 + r.Intn(25)
		if r.Intn(3) == 0 {
			return randvar.Field{Dist: dist.Point{V: lo + 40*r.Float64()}, N: n}
		}
		nd, err := dist.NewNormal(lo+40*r.Float64(), 1+30*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		return randvar.Field{Dist: nd, N: n}
	}
	if g.mixed {
		row := core.IngestRow{
			Fields: []randvar.Field{randvar.Det(float64(r.Intn(5))), g.mixedField(t, 40), g.mixedField(t, 30)},
			Time:   g.time(),
		}
		g.i++
		return row
	}
	v := gaussian(40)
	switch {
	case g.hist:
		// Six edges ten apart, five counts of 1–12, n the total count: what
		// the protocol's H() field makes of a kernel-mc row.
		lo := 15 + 5*r.Float64()
		edges := make([]float64, 6)
		for i := range edges {
			edges[i] = lo + 10*float64(i)
		}
		counts := make([]int, 5)
		n := 0
		for i := range counts {
			counts[i] = 1 + r.Intn(12)
			n += counts[i]
		}
		h, err := dist.HistogramFromCounts(edges, counts)
		if err != nil {
			t.Fatal(err)
		}
		v = randvar.Field{Dist: h, N: n}
	case g.i%5 == 4:
		counts := []int{1 + r.Intn(6), r.Intn(6), 1 + r.Intn(6), r.Intn(6)}
		h, err := dist.HistogramFromCounts([]float64{40, 50, 60, 70, 80}, counts)
		if err != nil {
			t.Fatal(err)
		}
		v = randvar.Field{Dist: h, N: 5 + r.Intn(25)}
	}
	row := core.IngestRow{
		Fields: []randvar.Field{randvar.Det(float64(r.Intn(5))), v, gaussian(30)},
		Time:   g.time(),
	}
	g.i++
	return row
}

// mixedField returns a field of a kind chosen at random, with its values
// around lo.
func (g *pinGen) mixedField(t *testing.T, lo float64) randvar.Field {
	t.Helper()
	r := g.rng
	n := 5 + r.Intn(25)
	histogram := func(buckets, maxCount int) *dist.Histogram {
		edges := make([]float64, buckets+1)
		for i := range edges {
			edges[i] = lo + 40*float64(i)/float64(buckets)
		}
		counts := make([]int, buckets)
		for i := range counts {
			counts[i] = r.Intn(maxCount + 1)
		}
		counts[r.Intn(buckets)]++
		h, err := dist.HistogramFromCounts(edges, counts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	var d dist.Distribution
	var err error
	switch r.Intn(7) {
	case 0:
		d, err = dist.NewNormal(lo+40*r.Float64(), 1+30*r.Float64())
	case 1:
		d = dist.Point{V: lo + 40*r.Float64()}
	case 2:
		d = histogram(5, 12)
	case 3:
		d = histogram(40, 3)
	case 4:
		xs := make([]float64, 1+r.Intn(8))
		ps := make([]float64, len(xs))
		for i := range xs {
			xs[i] = lo + 40*r.Float64()
			ps[i] = float64(1 + r.Intn(5))
		}
		d, err = dist.NewDiscrete(xs, ps)
	case 5:
		a := lo + 20*r.Float64()
		d, err = dist.NewUniform(a, a+1+20*r.Float64())
	default:
		var nd dist.Normal
		if nd, err = dist.NewNormal(lo+40*r.Float64(), 1+10*r.Float64()); err == nil {
			d, err = dist.NewMixture([]dist.Distribution{nd, histogram(5, 6)}, []float64{1 + r.Float64(), 1})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return randvar.Field{Dist: d, N: n}
}

// time advances the generator clock and returns the next row's timestamp.
func (g *pinGen) time() int64 {
	if !g.timed {
		g.now++
		return g.now
	}
	r := g.rng
	switch {
	case g.burst > 0:
		// A run of equal timestamps: nothing is evicted, the window grows.
		g.burst--
	case g.i%1000 == 999:
		g.burst = 150
	case g.i%700 == 350:
		// Out-of-order arrival; the clock itself does not move, so the rows
		// that follow are in order again.
		return g.now - 3
	case g.i%400 == 200:
		g.now += pinSpan + 5 // everything but the new row leaves
	case g.i%150 == 75:
		g.now += pinSpan - 2 // all but the last two time units leave
	case r.Intn(100) < 45:
		// equal to the previous timestamp
	default:
		g.now += 1 + int64(r.Intn(3))
	}
	return g.now
}

// pinRun drives one case on one engine configuration and returns what it
// emitted, batch by batch. With alone ≥ 0 only that query is bound.
func pinRun(t *testing.T, pc pinCase, cfg core.Config, alone int) [][]core.QueryResults {
	t.Helper()
	newEngine := func() *core.Engine {
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := newEngine()
	schema, err := stream.NewSchema("s",
		stream.Column{Name: "k"},
		stream.Column{Name: "v", Probabilistic: true},
		stream.Column{Name: "w", Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	defs := make([]checkpoint.QueryDef, len(pc.sql))
	for i, s := range pc.sql {
		q, err := eng.Compile(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		id := fmt.Sprintf("q%d", i)
		if alone < 0 || alone == i {
			if err := eng.Bind(id, q); err != nil {
				t.Fatal(err)
			}
		}
		defs[i] = checkpoint.QueryDef{ID: id, SQL: q.String(), Query: q}
	}

	gen := &pinGen{rng: rand.New(rand.NewSource(20120401)), timed: pc.timed, hist: pc.hist, mixed: pc.mixed}
	var held [][]core.QueryResults
	restores := map[int]bool{pinTuples / 3: true, 2 * pinTuples / 3: true}
	for gen.i < pinTuples {
		rows := make([]core.IngestRow, 1+gen.rng.Intn(8))
		for j := range rows {
			rows[j] = gen.row(t)
			if restores[gen.i] {
				rows = rows[:j+1]
				break
			}
		}
		out, err := eng.IngestBatch("s", rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, out)
		if !restores[gen.i] {
			continue
		}
		// Mid-stream: everything the engine knows goes through the on-disk
		// checkpoint form into a fresh engine, which carries on.
		snap, err := checkpoint.Capture(eng, uint64(gen.i), defs)
		if err != nil {
			t.Fatal(err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		snap, err = checkpoint.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		eng = newEngine()
		restored, err := checkpoint.Restore(eng, snap)
		if err != nil {
			t.Fatalf("restore at %d: %v", gen.i, err)
		}
		for i, rq := range restored {
			if alone < 0 || alone == i {
				if err := eng.Bind(rq.ID, rq.Query); err != nil {
					t.Fatal(err)
				}
			}
			defs[i] = checkpoint.QueryDef{ID: rq.ID, SQL: rq.SQL, Query: rq.Query}
		}
	}
	return held
}

// pinDigest folds everything a case emitted into one digest.
func pinDigest(t *testing.T, held [][]core.QueryResults) string {
	t.Helper()
	h := sha256.New()
	results := 0
	for _, batch := range held {
		for _, qr := range batch {
			fmt.Fprintf(h, "%s %d\n", qr.ID, len(qr.Results))
			for _, r := range qr.Results {
				js, err := json.Marshal(EncodeResult(r))
				if err != nil {
					t.Fatal(err)
				}
				h.Write(js)
				h.Write([]byte{'\n'})
				results++
			}
			if qr.Err != nil {
				fmt.Fprintf(h, "err %s\n", qr.Err)
			}
		}
	}
	if results < pinTuples/2 {
		t.Fatalf("only %d results from %d tuples: the case pins too little", results, pinTuples)
	}
	fmt.Fprintf(h, "results %d\n", results)
	return hex.EncodeToString(h.Sum(nil))
}

func TestWindowPins(t *testing.T) {
	if testing.Short() {
		t.Skip("long seeded streams")
	}
	// The two configurations differ in everything that must not change an
	// output bit; both are held to the same digest. The labels are the
	// subtest names the digests were pinned under, when the configurations
	// also ran the accuracy kernel at different worker counts; they are kept
	// so every pinned subtest keeps its name.
	configs := []struct {
		label    string
		unshared bool
	}{
		{"workers=1/unshared=false", false},
		{"workers=8/unshared=true", true},
	}
	for _, pc := range pinCases {
		for _, m := range []core.AccuracyMethod{core.AccuracyNone, core.AccuracyAnalytical, core.AccuracyBootstrap} {
			if _, ok := pc.want[m]; !ok {
				continue
			}
			for _, c := range configs {
				var cfg core.Config
				cfg.Level, cfg.Method, cfg.Seed = 0.9, m, 7
				cfg.MonteCarloValues, cfg.HistogramBins, cfg.BootstrapResamples = 16, 6, 8
				cfg.DropUnsure, cfg.MinProb = pc.dropUnsure, pc.minProb
				t.Run(pc.name+"/"+m.String()+"/"+c.label, func(t *testing.T) {
					t.Parallel()
					var held [][]core.QueryResults
					if !c.unshared {
						held = pinRun(t, pc, cfg, -1)
					} else {
						// Query i's results join each batch in id order.
						for i := range pc.sql {
							for b, batch := range pinRun(t, pc, cfg, i) {
								if b == len(held) {
									held = append(held, nil)
								}
								held[b] = append(held[b], batch...)
							}
						}
					}
					if got := pinDigest(t, held); got != pc.want[m] {
						t.Errorf("%s/%s: digest %s, pinned %s", pc.name, m, got, pc.want[m])
					}
				})
			}
		}
	}
}
