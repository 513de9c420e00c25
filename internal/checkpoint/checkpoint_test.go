package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

func testConfig() core.Config {
	return core.Config{Level: 0.9, Method: core.AccuracyBootstrap, Seed: 7}
}

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	schema, err := stream.NewSchema("temps",
		stream.Column{Name: "key"},
		stream.Column{Name: "val", Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	return eng
}

func pushOne(t *testing.T, eng *core.Engine, q *core.Query, key, mu, sigma2 float64, n int) []core.Result {
	t.Helper()
	nd, err := dist.NewNormal(mu, sigma2)
	if err != nil {
		t.Fatal(err)
	}
	tup, err := eng.NewTuple("temps", []randvar.Field{randvar.Det(key), {Dist: nd, N: n}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := q.Push(tup)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// fingerprint renders a result's numeric content with full bit precision
// so "equal" means bit-identical.
func fingerprint(results []core.Result) string {
	var b strings.Builder
	iv := func(p *accuracy.Interval) {
		if p != nil {
			fmt.Fprintf(&b, "[%x,%x@%x]", p.Lo, p.Hi, p.Level)
		}
	}
	for _, r := range results {
		fmt.Fprintf(&b, "seq=%d prob=%x probn=%d unsure=%v |", r.Tuple.Seq, r.Tuple.Prob, r.Tuple.ProbN, r.Unsure)
		for i, f := range r.Tuple.Fields {
			name := r.Tuple.Schema.Columns[i].Name
			fmt.Fprintf(&b, " %s=%x/%x/%d", name, f.Dist.Mean(), f.Dist.Variance(), f.N)
			if info := r.Fields[name]; info != nil {
				m, v := info.Mean, info.Variance
				iv(&m)
				iv(&v)
				for _, bin := range info.Bins {
					fmt.Fprintf(&b, "bin(%x,%x,%x)", bin.Lo, bin.Hi, bin.Estimate)
					ivv := bin.Interval
					iv(&ivv)
				}
			}
		}
		iv(r.TupleProb)
		b.WriteString("\n")
	}
	return b.String()
}

const testSQL = "SELECT AVG(val) FROM temps WINDOW 3 ROWS"

// TestCaptureRestoreEquivalence checkpoints a mid-stream query, restores
// it into a fresh engine, and verifies both produce bit-identical results
// for the same subsequent inserts — including the bootstrap accuracy RNG.
func TestCaptureRestoreEquivalence(t *testing.T) {
	engA := newEngine(t)
	qA, err := engA.Compile(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: window partially full, RNGs advanced past their seeds.
	for i := 0; i < 5; i++ {
		pushOne(t, engA, qA, float64(i), 10+float64(i), 2.5, 20+i)
	}

	snap, err := Capture(engA, 42, []QueryDef{{ID: "q1", SQL: qA.String(), Query: qA}})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if snap.LSN != 42 || snap.Version != version || len(snap.Streams) != 1 || len(snap.Queries) != 1 {
		t.Fatalf("snapshot = %+v, want version %d, lsn 42, 1 stream, 1 query", snap, version)
	}

	// Round-trip through the on-disk encoding to prove serialization is
	// part of the equivalence, not just in-memory copying.
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(engB, snap2)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(restored) != 1 || restored[0].ID != "q1" {
		t.Fatalf("restored = %v, want [q1]", restored)
	}
	qB := restored[0].Query
	if engB.Seq() != engA.Seq() {
		t.Fatalf("restored seq %d != captured seq %d", engB.Seq(), engA.Seq())
	}

	for i := 5; i < 12; i++ {
		ra := pushOne(t, engA, qA, float64(i), 10+float64(i), 2.5, 20+i)
		rb := pushOne(t, engB, qB, float64(i), 10+float64(i), 2.5, 20+i)
		if fa, fb := fingerprint(ra), fingerprint(rb); fa != fb {
			t.Fatalf("push %d diverged:\noriginal:  %srestored: %s", i, fa, fb)
		}
	}
	if sa, sb := qA.Stats(), qB.Stats(); sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
}

// TestCaptureRestoreGroupBy exercises per-group window state.
func TestCaptureRestoreGroupBy(t *testing.T) {
	const sql = "SELECT key, AVG(val) FROM temps GROUP BY key WINDOW 2 ROWS"
	engA := newEngine(t)
	qA, err := engA.Compile(sql)
	if err != nil {
		t.Skipf("engine does not compile %q: %v", sql, err)
	}
	for i := 0; i < 6; i++ {
		pushOne(t, engA, qA, float64(i%2), 10+float64(i), 2.0, 15)
	}
	snap, err := Capture(engA, 7, []QueryDef{{ID: "g", SQL: qA.String(), Query: qA}})
	if err != nil {
		t.Fatal(err)
	}
	engB, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(engB, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	qB := restored[0].Query
	for i := 6; i < 10; i++ {
		ra := pushOne(t, engA, qA, float64(i%2), 10+float64(i), 2.0, 15)
		rb := pushOne(t, engB, qB, float64(i%2), 10+float64(i), 2.0, 15)
		if fa, fb := fingerprint(ra), fingerprint(rb); fa != fb {
			t.Fatalf("push %d diverged:\noriginal:  %srestored: %s", i, fa, fb)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	snap := &Snapshot{Version: 1, LSN: 9, Seq: 3}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":     data[:4],
		"bad magic": append([]byte("XXXXXXXX"), data[8:]...),
		"bad crc":   flipLastByte(data),
	}
	for name, bad := range cases {
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
	truncated := make([]byte, len(data)-2)
	copy(truncated, data)
	if _, err := Decode(truncated); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: Decode = %v, want ErrCorrupt", err)
	}
}

func flipLastByte(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	out[len(out)-1] ^= 0xff
	return out
}

// TestRestoreRejectsUnknownVersion accepts the version Capture writes and
// the legacy one, and refuses any other.
func TestRestoreRejectsUnknownVersion(t *testing.T) {
	for _, v := range []int{1, 2, 3} {
		eng, err := core.NewEngine(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(eng, &Snapshot{Version: v}); (err == nil) != (v <= 2) {
			t.Fatalf("Restore of version %d: %v", v, err)
		}
	}
	eng, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(eng, nil); err == nil {
		t.Fatal("Restore accepted a nil snapshot")
	}
}

func TestManagerSaveLoadPrune(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := m.LoadLatest(); err != nil || snap != nil {
		t.Fatalf("LoadLatest on empty dir = (%v, %v), want (nil, nil)", snap, err)
	}
	for _, lsn := range []uint64{10, 20, 30, 40} {
		if err := m.Save(&Snapshot{Version: 1, LSN: lsn, Seq: lsn * 2}); err != nil {
			t.Fatalf("Save(%d): %v", lsn, err)
		}
	}
	files, err := m.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != keepFiles {
		t.Fatalf("%d checkpoint files kept, want %d", len(files), keepFiles)
	}
	snap, err := m.LoadLatest()
	if err != nil || snap == nil || snap.LSN != 40 {
		t.Fatalf("LoadLatest = (%+v, %v), want lsn 40", snap, err)
	}
}

// TestManagerDropAfter covers the rejoin path: checkpoints taken past the
// epoch boundary capture diverged state and must be removed so recovery
// falls back to the last epoch-consistent one.
func TestManagerDropAfter(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, lsn := range []uint64{8, 25} {
		if err := m.Save(&Snapshot{Version: 1, LSN: lsn, Seq: lsn}); err != nil {
			t.Fatalf("Save(%d): %v", lsn, err)
		}
	}
	if err := m.DropAfter(10); err != nil {
		t.Fatalf("DropAfter: %v", err)
	}
	snap, err := m.LoadLatest()
	if err != nil || snap == nil || snap.LSN != 8 {
		t.Fatalf("LoadLatest after DropAfter = (%+v, %v), want lsn 8", snap, err)
	}
	// Boundary is inclusive-keep; dropping everything leaves a loadable nil.
	if err := m.DropAfter(7); err != nil {
		t.Fatalf("DropAfter(7): %v", err)
	}
	if snap, err := m.LoadLatest(); err != nil || snap != nil {
		t.Fatalf("LoadLatest after dropping all = (%+v, %v), want (nil, nil)", snap, err)
	}
	// Epoch fields round-trip through the on-disk encoding.
	save := &Snapshot{Version: 1, LSN: 30, Seq: 30, Epoch: 3,
		EpochHist: []EpochBound{{Epoch: 2, Start: 12}, {Epoch: 3, Start: 21}}}
	if err := m.Save(save); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadLatest()
	if err != nil || got == nil || got.Epoch != 3 || len(got.EpochHist) != 2 || got.EpochHist[1].Start != 21 {
		t.Fatalf("epoch round-trip = (%+v, %v)", got, err)
	}
}

// TestLoadLatestSkipsCorrupt simulates a crash mid-snapshot: the newest
// checkpoint file is garbage, and recovery must fall back to the previous
// valid one.
func TestLoadLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&Snapshot{Version: 1, LSN: 5, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// A half-written "newer" checkpoint under a valid name.
	bad := filepath.Join(dir, "ckpt-00000000000000ff.ck")
	if err := os.WriteFile(bad, []byte("ASDBCKP1 then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := m.LoadLatest()
	if err != nil || snap == nil || snap.LSN != 5 {
		t.Fatalf("LoadLatest = (%+v, %v), want fallback to lsn 5", snap, err)
	}
	// A stray temp file must also be ignored.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := m.LoadLatest(); err != nil || snap.LSN != 5 {
		t.Fatalf("LoadLatest with stray temp = (%+v, %v), want lsn 5", snap, err)
	}
}

func TestLatestRawRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw, lsn, err := m.LatestRaw(); raw != nil || lsn != 0 || err != nil {
		t.Fatalf("empty dir: LatestRaw = (%d bytes, %d, %v), want (nil, 0, nil)", len(raw), lsn, err)
	}
	if err := m.Save(&Snapshot{Version: 1, LSN: 9, Seq: 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&Snapshot{Version: 1, LSN: 17, Seq: 8}); err != nil {
		t.Fatal(err)
	}
	// A corrupt "newer" file must be skipped, like LoadLatest does.
	bad := filepath.Join(dir, "ckpt-00000000000000ff.ck")
	if err := os.WriteFile(bad, []byte("ASDBCKP1 then garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, lsn, err := m.LatestRaw()
	if err != nil || lsn != 17 {
		t.Fatalf("LatestRaw = (_, %d, %v), want lsn 17", lsn, err)
	}
	snap, err := Decode(raw)
	if err != nil {
		t.Fatalf("shipped bytes do not decode: %v", err)
	}
	if snap.LSN != 17 || snap.Seq != 8 {
		t.Fatalf("decoded snapshot = LSN %d Seq %d, want 17/8", snap.LSN, snap.Seq)
	}
}

// TestCaptureDetached encodes a capture again after its queries moved on —
// ungrouped, GROUP BY, join and sketch, past wrapped rings, new group keys
// and new histogram slots — and demands the bytes it encoded right after
// the capture.
func TestCaptureDetached(t *testing.T) {
	fx := joinFixture
	fx.queries = append([][2]string{
		{"qavg", "SELECT AVG(val) AS a FROM temps WINDOW 4 ROWS"},
		{"qgroup", "SELECT key, SUM(val) AS s FROM temps GROUP BY key WINDOW 3 ROWS"},
		{"qsketch", "SELECT COUNT(val) AS c, AVG(val) AS a FROM temps WINDOW 6 ROWS BACKEND SKETCH"},
	}, fx.queries...)
	eng := fx.engine(t)
	defs := make([]QueryDef, len(fx.queries))
	for i, q := range fx.queries {
		cq, err := eng.Compile(q[1])
		if err != nil {
			t.Fatal(err)
		}
		defs[i] = QueryDef{ID: q[0], SQL: cq.String(), Query: cq}
	}
	push := func(from, to int) {
		for i := from; i < to; i++ {
			tup := fx.tuple(t, eng, i)
			for _, d := range defs {
				if tup.Schema.Name != "temps" && !strings.Contains(d.SQL, "JOIN") {
					continue
				}
				if _, err := d.Query.Push(tup); err != nil {
					t.Fatalf("tuple %d into %s: %v", i, d.ID, err)
				}
			}
		}
	}
	push(0, 7)
	snap, err := Capture(eng, 7, defs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"col_window"`, `"groups"`, `"col_join_left"`, `"sketch"`} {
		if !strings.Contains(string(want), key) {
			t.Fatalf("capture holds no %s", key)
		}
	}
	push(7, 60)
	got, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("capture changed as its queries were pushed:\n got: %s\nwant: %s", got[headerLen:], want[headerLen:])
	}
}
