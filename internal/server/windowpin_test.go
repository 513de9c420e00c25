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
// One digest is asserted for engine configurations that must not change an
// output bit: Workers 1 with planner sharing, Workers 8 without.
//
// The digests were generated at commit bd57fee, the last engine that could
// also store these windows as rows of *Tuple (time windows always, count
// windows behind an option); there the row engine was held to the same
// digests. They are constants: a digest that no longer matches is a
// behaviour change, not a reason to regenerate.
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
	want  map[core.AccuracyMethod]string
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
}

// pinGen produces the seeded input stream: k is a deterministic group key,
// v is Normal or Point with a histogram every fifth row (so aggregates over
// it move in and out of the Gaussian closed form), w is always Normal or
// Point.
type pinGen struct {
	rng   *rand.Rand
	timed bool
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
	v := gaussian(40)
	if g.i%5 == 4 {
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

// pinRun drives one case on one engine configuration and returns the digest
// of everything it emitted.
func pinRun(t *testing.T, pc pinCase, cfg core.Config) string {
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
		if err := eng.Bind(id, q); err != nil {
			t.Fatal(err)
		}
		defs[i] = checkpoint.QueryDef{ID: id, SQL: q.SQL(), Query: q}
	}

	gen := &pinGen{rng: rand.New(rand.NewSource(20120401)), timed: pc.timed}
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
			if err := eng.Bind(rq.ID, rq.Query); err != nil {
				t.Fatal(err)
			}
			defs[i] = checkpoint.QueryDef{ID: rq.ID, SQL: rq.SQL, Query: rq.Query}
		}
	}

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
	// output bit; both are held to the same digest.
	configs := []core.Config{
		{Workers: 1},
		{Workers: 8, NoSharedState: true},
	}
	for _, pc := range pinCases {
		for _, m := range []core.AccuracyMethod{core.AccuracyAnalytical, core.AccuracyBootstrap} {
			for _, cfg := range configs {
				cfg.Level, cfg.Method, cfg.Seed = 0.9, m, 7
				cfg.MonteCarloValues, cfg.HistogramBins, cfg.BootstrapResamples = 16, 6, 8
				name := fmt.Sprintf("%s/%s/workers=%d/unshared=%v", pc.name, m, cfg.Workers, cfg.NoSharedState)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if got := pinRun(t, pc, cfg); got != pc.want[m] {
						t.Errorf("%s/%s: digest %s, pinned %s", pc.name, m, got, pc.want[m])
					}
				})
			}
		}
	}
}
