package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

var genFixtures = flag.Bool("gen-fixtures", false,
	"rewrite testdata/join_columns.* from the current engine")

// A pinned fixture is a checkpoint a given engine wrote after captureAt
// tuples, and what that engine emitted for tuples captureAt..end afterwards
// (testdata/PROVENANCE.md says which engine).
type pinnedFixture struct {
	name      string // testdata/<name>.ck and testdata/<name>.golden
	streams   []string
	queries   [][2]string // id, SQL
	captureAt int
	end       int
	// current marks the fixture this engine writes, which -gen-fixtures
	// rewrites; every other one shows that what an earlier engine wrote
	// still restores, and is never rewritten.
	current bool
}

var (
	// Two joins: WINDOW 3 ROWS has both sides full (and wrapped) at the
	// capture, WINDOW 40 ROWS both part-full. join_windows holds the sides
	// as rows, the legacy form; join_columns is the same run's checkpoint
	// as this engine writes it.
	joinFixture = pinnedFixture{
		name:    "join_windows",
		streams: []string{"temps", "hums"},
		queries: [][2]string{
			{"qfull", "SELECT temps.val, hums.val FROM temps JOIN hums ON key = key WINDOW 3 ROWS"},
			{"qpart", "SELECT (temps.val + hums.val) / 2 AS mix FROM temps JOIN hums ON temps.key = hums.key WHERE hums.val > 11 WINDOW 40 ROWS"},
		},
		captureAt: 20,
		end:       50,
	}
	joinColumnsFixture = func() pinnedFixture {
		fx := joinFixture
		fx.name, fx.current = "join_columns", true
		return fx
	}()
	// A count window, GROUP BY over count and span windows, and a span
	// window, with histogram values in Other slots, as a version-1 engine
	// checkpointed them.
	aggregateFixture = pinnedFixture{
		name:    "aggregate_windows",
		streams: []string{"temps"},
		queries: [][2]string{
			{"qcount", "SELECT AVG(val) AS a, COUNT(key) AS c FROM temps WINDOW 5 ROWS"},
			{"qgroup", "SELECT key, SUM(val) AS s FROM temps GROUP BY key WINDOW 3 ROWS"},
			{"qspan", "SELECT AVG(val) AS a, MAX(val) AS hi FROM temps WINDOW 10 SECONDS"},
			{"qgspan", "SELECT key, AVG(val) AS a FROM temps GROUP BY key WINDOW 8 SECONDS"},
		},
		captureAt: 18,
		end:       45,
	}
	sketchFixture = pinnedFixture{
		name:    "sketch_prob",
		streams: []string{"temps"},
		queries: [][2]string{
			{"qs", "SELECT COUNT(val) AS c, AVG(val) AS a, SUM(val) AS s FROM temps WINDOW 6 ROWS BACKEND SKETCH"},
		},
		captureAt: 15,
		end:       40,
	}
)

// tuple returns the fixture's i-th tuple: a stream chosen round-robin,
// key i%4, a value cycling through Normal, Point and histogram fields, and
// a membership probability below 1 for four tuples in five.
func (fx pinnedFixture) tuple(t *testing.T, eng *core.Engine, i int) *stream.Tuple {
	t.Helper()
	var val randvar.Field
	switch i % 4 {
	case 3:
		h, err := dist.HistogramFromCounts([]float64{0, 10, 20, 30}, []int{1 + i%5, 2, 1 + i%3})
		if err != nil {
			t.Fatal(err)
		}
		val = randvar.Field{Dist: h, N: 9 + i%4}
	case 1:
		val = randvar.Field{Dist: dist.Point{V: 12 + float64(i%7)}, N: 15}
	default:
		nd, err := dist.NewNormal(10+float64(i%13), 2.5)
		if err != nil {
			t.Fatal(err)
		}
		val = randvar.Field{Dist: nd, N: 20 + i%5}
	}
	name := fx.streams[0]
	if len(fx.streams) > 1 && i%3 == 2 {
		name = fx.streams[1]
	}
	tup, err := eng.NewTuple(name, []randvar.Field{randvar.Det(float64(i % 4)), val})
	if err != nil {
		t.Fatal(err)
	}
	tup.Prob = 1 - float64(i%5)/10
	tup.ProbN = 7 * (i % 3)
	tup.Time = int64(3*i + i%2)
	return tup
}

// engine returns an engine with the fixture's streams registered.
func (fx pinnedFixture) engine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fx.streams {
		schema, err := stream.NewSchema(name,
			stream.Column{Name: "key"},
			stream.Column{Name: "val", Probabilistic: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RegisterStream(schema); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// push feeds tuples [from, to) to every query, in the order of defs, and
// returns one line per tuple and query: the SHA-256 of the bit-exact
// fingerprint of what the query emitted.
func (fx pinnedFixture) push(t *testing.T, eng *core.Engine, defs []QueryDef, from, to int) string {
	t.Helper()
	var b strings.Builder
	for i := from; i < to; i++ {
		tup := fx.tuple(t, eng, i)
		for _, d := range defs {
			results, err := d.Query.Push(tup)
			if err != nil {
				t.Fatalf("tuple %d into %s: %v", i, d.ID, err)
			}
			fmt.Fprintf(&b, "row %d %s results=%d %x\n", i, d.ID, len(results), sha256.Sum256([]byte(fingerprint(results))))
		}
	}
	return b.String()
}

// write runs the writing engine: captureAt tuples, the checkpoint, then the
// continuation.
func (fx pinnedFixture) write(t *testing.T) (ck []byte, golden string) {
	t.Helper()
	eng := fx.engine(t)
	defs := make([]QueryDef, len(fx.queries))
	for i, q := range fx.queries {
		cq, err := eng.Compile(q[1])
		if err != nil {
			t.Fatal(err)
		}
		defs[i] = QueryDef{ID: q[0], SQL: cq.String(), Query: cq}
	}
	fx.push(t, eng, defs, 0, fx.captureAt)
	ck = fx.capture(t, eng, defs)
	return ck, fx.push(t, eng, defs, fx.captureAt, fx.end)
}

func (fx pinnedFixture) capture(t *testing.T, eng *core.Engine, defs []QueryDef) []byte {
	t.Helper()
	snap, err := Capture(eng, uint64(fx.captureAt), defs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restore decodes the fixture's checkpoint into a fresh engine.
func (fx pinnedFixture) restore(t *testing.T, data []byte) (*core.Engine, []QueryDef) {
	t.Helper()
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(eng, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defs := make([]QueryDef, len(restored))
	for i, rq := range restored {
		defs[i] = QueryDef{ID: rq.ID, SQL: rq.SQL, Query: rq.Query}
	}
	return eng, defs
}

// load reads the fixture, rewriting a current one first under
// -gen-fixtures.
func (fx pinnedFixture) load(t *testing.T) (ck []byte, golden string) {
	t.Helper()
	path := "testdata/" + fx.name
	if *genFixtures && fx.current {
		ck, golden := fx.write(t)
		if err := os.WriteFile(path+".ck", ck, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".golden", []byte(golden), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := os.ReadFile(path + ".ck")
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(path + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	return ck, string(g)
}

func diffLines(t *testing.T, what, got, want string) {
	t.Helper()
	gl, wl := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	for i, line := range wl {
		if i >= len(gl) || gl[i] != line {
			t.Fatalf("%s diverged at line %d:\n got: %swant: %s", what, i+1, gl[min(i, len(gl)-1)], line)
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", what, len(gl), len(wl))
	}
}

// TestJoinWindowFixture pins join state across checkpoints. join_windows,
// which an earlier engine wrote with both joins' sides as rows, restores,
// captures again as exactly join_columns and goes on to emit what its
// writer emitted; a fresh run writes join_columns, whose golden lines are
// join_windows', and it restores and re-captures unchanged.
func TestJoinWindowFixture(t *testing.T) {
	legacy, legacyGolden := joinFixture.load(t)
	if strings.Count(string(legacy), `"join_left"`) != 2 || strings.Count(string(legacy), `"join_right"`) != 2 {
		t.Fatal("legacy fixture does not hold two joins' windows as rows")
	}
	fx := joinColumnsFixture
	ck, golden := fx.load(t)
	if strings.Count(string(ck), `"col_join_left"`) != 2 || strings.Count(string(ck), `"col_join_right"`) != 2 ||
		strings.Contains(string(ck), `"join_left"`) {
		t.Fatal("fixture does not hold two joins' windows in columns only")
	}
	diffLines(t, "columnar fixture's golden", golden, legacyGolden)
	fresh, freshGolden := fx.write(t)
	if !bytes.Equal(fresh, ck) {
		t.Fatalf("this engine checkpoints the fixture's run differently:\n got: %s\nwant: %s", fresh[headerLen:], ck[headerLen:])
	}
	diffLines(t, "fresh run", freshGolden, golden)

	for _, from := range []struct {
		name string
		ck   []byte
	}{{"legacy", legacy}, {"columnar", ck}} {
		eng, defs := fx.restore(t, from.ck)
		if re := fx.capture(t, eng, defs); !bytes.Equal(re, ck) {
			t.Fatalf("engine restored from the %s fixture re-captures differently:\n got: %s\nwant: %s", from.name, re[headerLen:], ck[headerLen:])
		}
		diffLines(t, "continuation after restoring the "+from.name+" fixture", fx.push(t, eng, defs, fx.captureAt, fx.end), golden)
	}
}

// TestAggregateWindowFixture holds aggregate windows to the bytes a
// version-1 engine wrote for them: a fresh run's checkpoint differs from
// that engine's only in its version, and the restored fixture goes on to
// emit what its writer emitted.
func TestAggregateWindowFixture(t *testing.T) {
	fx := aggregateFixture
	ck, golden := fx.load(t)
	for _, key := range []string{`"col_window"`, `"groups"`, `"other"`} {
		if !bytes.Contains(ck, []byte(key)) {
			t.Fatalf("fixture holds no %s", key)
		}
	}
	fresh, freshGolden := fx.write(t)
	want := bytes.Replace(ck[headerLen:], []byte(`{"version":1,`), []byte(`{"version":2,`), 1)
	if !bytes.Equal(fresh[headerLen:], want) {
		t.Fatalf("this engine checkpoints aggregate windows differently:\n got: %s\nwant: %s", fresh[headerLen:], want)
	}
	diffLines(t, "fresh run", freshGolden, golden)
	eng, defs := fx.restore(t, ck)
	diffLines(t, "continuation after restore", fx.push(t, eng, defs, fx.captureAt, fx.end), golden)
}

// TestSketchProbFixture restores a sketch query's checkpoint, written by an
// earlier engine over tuples with membership probabilities below 1, and
// demands the results the writing engine emitted afterwards.
func TestSketchProbFixture(t *testing.T) {
	fx := sketchFixture
	ck, golden := fx.load(t)
	if !strings.Contains(string(ck), `"sum_p1px2"`) {
		t.Fatal("fixture's sketch holds no membership uncertainty")
	}
	eng, defs := fx.restore(t, ck)
	diffLines(t, "continuation after restore", fx.push(t, eng, defs, fx.captureAt, fx.end), golden)
}
