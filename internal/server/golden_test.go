package server

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestGoldenSession drives a scripted client session against a live durable
// daemon and byte-compares the full transcript — every OK, ERR, and DATA
// line, in order — against testdata/golden_session.txt. The engine is
// pinned (seed, analytical accuracy, fsync=none) so DATA
// payloads, STATS, and per-query METRICS telemetry are bit-reproducible;
// any change to result decoration, JSON encoding, or protocol framing
// shows up as a transcript diff.
//
// The global METRICS reply is the one part normalized to shape: its
// *values* accumulate across the whole test process (the registry is
// process-global), but its *key set* is fixed at package init, so the
// transcript records the sorted metric names and masks the numbers.
//
// Regenerate after an intentional protocol change with:
//
//	go test ./internal/server/ -run TestGoldenSession -update
var updateGolden = flag.Bool("update", false, "rewrite golden transcripts")

// goldenScript is the request side of the session. Comments become
// transcript section markers.
var goldenScript = []string{
	"PING",
	"STREAM readings sensor temp:dist",
	"QUERY q1 SELECT temp FROM readings WHERE temp > 50",
	"QUERY q2 SELECT AVG(temp) AS avg_temp FROM readings WINDOW 3 ROWS",
	"INSERT readings 1 N(60,4,25)",
	"INSERT readings 2 N(40,9,16)",
	"INSERT readings 3 N(75,16,9)",
	"INSERT readings 4 S(55;52;58;61)",
	"STATS q1",
	"STATS q2",
	"METRICS q1",
	"METRICS q2",
	"METRICS",
	"EXPLAIN q1",
	"STATS nosuch",
	"BOGUS",
	"CLOSE q1",
	"QUIT",
}

func TestGoldenSession(t *testing.T) {
	eng, err := core.NewEngine(core.Config{
		Seed:    7,
		Method:  core.AccuracyAnalytical,
		Level:   0.9,
		DataDir: t.TempDir(),
		// fsync=none keeps the transcript free of timing-dependent fsync
		// scheduling; durability correctness has its own tests.
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

	nc, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))

	// The dispatch loop is synchronous per connection and DATA lines are
	// written before the insert's OK, so reading until the post-QUIT EOF
	// yields a deterministic interleaving.
	var transcript strings.Builder
	scanner := bufio.NewScanner(nc)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	w := bufio.NewWriter(nc)
	for _, req := range goldenScript {
		fmt.Fprintf(&transcript, ">> %s\n", req)
		if _, err := w.WriteString(req + "\n"); err != nil {
			t.Fatalf("send %q: %v", req, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("send %q: %v", req, err)
		}
		// Each request yields exactly one OK/ERR reply, preceded by any
		// DATA lines it triggered.
		for scanner.Scan() {
			line := scanner.Text()
			transcript.WriteString(normalizeGoldenLine(t, req, line))
			transcript.WriteByte('\n')
			if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR ") {
				break
			}
		}
		if err := scanner.Err(); err != nil {
			t.Fatalf("read after %q: %v", req, err)
		}
	}

	got := transcript.String()
	goldenPath := filepath.Join("testdata", "golden_session.txt")
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
		t.Fatalf("session transcript diverged from %s (regenerate with -update if intentional)\n%s",
			goldenPath, transcriptDiff(string(want), got))
	}
}

// normalizeGoldenLine masks the process-global METRICS payload down to its
// stable shape; every other line passes through byte-exact.
func normalizeGoldenLine(t *testing.T, req, line string) string {
	t.Helper()
	if req != "METRICS" || !strings.HasPrefix(line, "OK ") {
		return line
	}
	var snap struct {
		Counters   map[string]json.RawMessage `json:"counters"`
		Gauges     map[string]json.RawMessage `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(line[len("OK "):]), &snap); err != nil {
		t.Fatalf("global METRICS payload is not valid JSON: %v\n%s", err, line)
	}
	names := func(m map[string]json.RawMessage) string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	return fmt.Sprintf("OK <metrics counters=[%s] gauges=[%s] histograms=[%s]>",
		names(snap.Counters), names(snap.Gauges), names(snap.Histograms))
}

// transcriptDiff renders the first divergent line with context.
func transcriptDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first divergence at line %d:\n want: %s\n  got: %s", i+1, w, g)
		}
	}
	return "transcripts have identical lines but differ (trailing bytes?)"
}
