package checkpoint

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
)

// testdata/legacy_row_windows.ck is a checkpoint written by an engine that
// still had row-oriented aggregate windows (see testdata/PROVENANCE.md): a
// count window, a time window and two grouped windows, every one in the
// legacy `window` form. legacy_row_windows.golden is what that engine went
// on to emit for rows legacyCaptureAt..legacyEnd.
const (
	legacyFixture   = "testdata/legacy_row_windows.ck"
	legacyGolden    = "testdata/legacy_row_windows.golden"
	legacyCaptureAt = 17
	legacyEnd       = 57
)

// legacyIngest feeds rows [from, to) one batch each and returns one line per
// row and query: the SHA-256 of the bit-exact fingerprint of what it emitted.
func legacyIngest(t *testing.T, eng *core.Engine, from, to int) string {
	t.Helper()
	var b strings.Builder
	for i := from; i < to; i++ {
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
		rows := []core.IngestRow{{
			Fields: []randvar.Field{randvar.Det(float64(i % 3)), val},
			Time:   int64(i + i/5*2),
		}}
		out, err := eng.IngestBatch("temps", rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, qr := range out {
			fp := fingerprint(qr.Results)
			if qr.Err != nil {
				fp += " err=" + qr.Err.Error()
			}
			fmt.Fprintf(&b, "row %d %s results=%d %x\n", i, qr.ID, len(qr.Results), sha256.Sum256([]byte(fp)))
		}
	}
	return b.String()
}

// TestLegacyRowFixture restores the parent-written checkpoint — whose
// windows are all in the row form this engine no longer writes — and
// demands the continuation the writing engine produced, byte for byte.
func TestLegacyRowFixture(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"col_window"`) || strings.Count(string(data), `"window"`) < 8 {
		t.Fatal("fixture does not hold its windows in the legacy row form")
	}
	want, err := os.ReadFile(legacyGolden)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.HistogramBins = 4 // as the writing engine ran
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(eng, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defs := make([]QueryDef, len(restored))
	for i, rq := range restored {
		if err := eng.Bind(rq.ID, rq.Query); err != nil {
			t.Fatal(err)
		}
		defs[i] = QueryDef{ID: rq.ID, SQL: rq.SQL, Query: rq.Query}
	}
	// What was read as rows is written back as columns: one col_window for
	// each ungrouped window and for each of the three keys of each grouped
	// one.
	resnap, err := Capture(eng, legacyCaptureAt, defs)
	if err != nil {
		t.Fatal(err)
	}
	redata, err := resnap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(redata), `"window"`) || strings.Count(string(redata), `"col_window"`) != 8 {
		t.Fatalf("restored engine does not checkpoint its windows as col_window only:\n%s", redata[headerLen:])
	}
	got := strings.SplitAfter(legacyIngest(t, eng, legacyCaptureAt, legacyEnd), "\n")
	for i, line := range strings.SplitAfter(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			t.Fatalf("continuation after restoring the legacy fixture diverged at line %d:\n got: %swant: %s", i+1, got[min(i, len(got)-1)], line)
		}
	}
}
