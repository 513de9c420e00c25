package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestGoldenSketchSession is the sketch-backend counterpart of
// TestGoldenSession: one scripted connection creates a BACKEND SKETCH
// query, ingests 100k tuples through the normal wire path (bulk, outside
// the recorded transcript — the golden file records the session, not 100
// thousand OK lines), then exercises STATS/EXPLAIN/DATA against the warm
// sketch. The whole exchange is byte-compared against
// testdata/golden_sketch_session.txt; regenerate with the shared -update
// flag:
//
//	go test ./internal/server/ -run TestGoldenSketchSession -update
//
// Queries are owned by their creating connection (dropConnQueries), so the
// session stays on a single connection throughout.

const sketchGoldenTuples = 100_000

// sketchGoldenCreate is recorded: stream + sketch query creation and the
// cold-plan EXPLAIN.
var sketchGoldenCreate = []string{
	"PING",
	"STREAM readings sensor temp:dist",
	"QUERY qs SELECT COUNT(temp) AS c, AVG(temp) AS a, SUM(temp) AS s FROM readings WINDOW 64 ROWS BACKEND SKETCH",
	"EXPLAIN qs",
}

// sketchGoldenServe is recorded after the bulk ingest. The sketch window
// (64 rows, 4-row blocks) seals a block every 4th push; 100k warm-up
// tuples land exactly on a block boundary, so the 4th insert below is the
// one that emits DATA to the owning connection.
var sketchGoldenServe = []string{
	"INSERT readings 100001 N(58,4,25)",
	"INSERT readings 100002 N(44,9,16)",
	"INSERT readings 100003 N(71,16,9)",
	"INSERT readings 100004 S(55;52;58;61)",
	"STATS qs",
	"EXPLAIN qs",
	"METRICS qs",
	"STATS nosuch",
	"QUIT",
}

func TestGoldenSketchSession(t *testing.T) {
	eng, err := core.NewEngine(core.Config{
		Seed:        7,
		Method:      core.AccuracyAnalytical,
		Level:       0.9,
		DataDir:     t.TempDir(),
		FsyncPolicy: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDurable(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	tc := dialServer(t, addr.String())
	defer tc.c.Close()

	var transcript strings.Builder
	transcript.WriteString("## create\n")
	playGoldenScript(t, &transcript, tc, sketchGoldenCreate)

	// Bulk ingest on the same (owning) connection: each INSERTBATCH reply
	// drains its DATA frames through tclient.cmd, so the ~25k warm-up
	// frames flow through the full serving path without entering the
	// transcript.
	fmt.Fprintf(&transcript, "## bulk ingest: %d tuples (unrecorded)\n", sketchGoldenTuples)
	bulkIngestSketchGolden(t, tc)

	transcript.WriteString("## serve\n")
	playGoldenScript(t, &transcript, tc, sketchGoldenServe)

	got := transcript.String()
	goldenPath := filepath.Join("testdata", "golden_sketch_session.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden transcript (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("sketch session transcript diverged from %s (regenerate with -update if intentional)\n%s",
			goldenPath, transcriptDiff(string(want), got))
	}
}

// playGoldenScript drives one script segment over an existing connection
// and appends the recorded exchange (requests prefixed >>, replies
// verbatim) to the transcript.
func playGoldenScript(t *testing.T, transcript *strings.Builder, tc *tclient, script []string) {
	t.Helper()
	for _, req := range script {
		fmt.Fprintf(transcript, ">> %s\n", req)
		reply, data := tc.cmd(req)
		for _, d := range data {
			transcript.WriteString(normalizeGoldenLine(t, req, d))
			transcript.WriteByte('\n')
		}
		transcript.WriteString(normalizeGoldenLine(t, req, reply))
		transcript.WriteByte('\n')
	}
}

// bulkIngestSketchGolden streams sketchGoldenTuples deterministic tuples in
// 250-tuple INSERTBATCH frames. Values cycle through a fixed grid of
// Gaussian parameters so the final window state is reproducible by
// construction, not by seed.
func bulkIngestSketchGolden(t *testing.T, tc *tclient) {
	t.Helper()
	const per = 250
	var sb strings.Builder
	for base := 0; base < sketchGoldenTuples; base += per {
		sb.Reset()
		sb.WriteString("INSERTBATCH readings ")
		for i := base; i < base+per; i++ {
			if i > base {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%d N(%d,%d,%d)", i+1, 30+i%47, (1+i%5)*(1+i%5), 9+i%24)
		}
		tc.mustOK(sb.String())
	}
}
