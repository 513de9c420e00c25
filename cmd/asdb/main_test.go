package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// roadsCSV is Figure 1's shape: raw delay observations keyed by segment.
const roadsCSV = `segment_id,time_sec,delay_sec
19,50,56
19,51,38
19,51,97
20,49,72
20,51,59
`

// runScript feeds script to asdb on stdin and returns what it printed on
// stdout, failing the test on a non-zero exit.
func runScript(t *testing.T, script string, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, strings.NewReader(script), &out, &errOut); code != 0 {
		t.Fatalf("asdb %v exited %d:\n%s", args, code, errOut.String())
	}
	return out.String()
}

// TestTranscript runs each testdata/*.asdb script through asdb's in-process
// server (pinned seed, -fsync none) and compares stdout byte for byte with
// testdata/*.golden; -update rewrites the goldens. $DIR in a script names
// a temp directory holding roads.csv, and stands for it in the output.
func TestTranscript(t *testing.T) {
	scripts, err := filepath.Glob("testdata/*.asdb")
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no scripts: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "roads.csv"), []byte(roadsCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range scripts {
		name := strings.TrimSuffix(filepath.Base(path), ".asdb")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := runScript(t, strings.ReplaceAll(string(src), "$DIR", dir), "-seed", "1", "-fsync", "none")
			got = strings.ReplaceAll(got, dir, "$DIR")
			golden := strings.TrimSuffix(path, ".asdb") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output diverged from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

func dataLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "DATA ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestDurableResume splits one session across two asdb runs over one
// -data-dir, at two checkpoint cadences: the second run ATTACHes the
// recovered query before anything else, and its DATA lines are
// byte-identical to the tail of an uninterrupted run.
func TestDurableResume(t *testing.T) {
	const phase1, total = 5, 10
	head := "STREAM temps key val:dist\nQUERY q1 SELECT AVG(val) FROM temps WINDOW 3 ROWS\n"
	inserts := func(from, to int) string {
		var b strings.Builder
		for i := from; i < to; i++ {
			fmt.Fprintf(&b, "INSERT temps %d N(%d.5,2.25,%d)\n", i, 10+i, 20+i)
		}
		return b.String()
	}
	engine := []string{"-method", "bootstrap", "-seed", "11", "-fsync", "none"}
	ref := dataLines(runScript(t, head+inserts(0, total), engine...))
	if len(ref) != total-2 {
		t.Fatalf("reference emitted %d results, want %d", len(ref), total-2)
	}
	for _, ckEvery := range []int{3, 1024} {
		t.Run(fmt.Sprintf("ckEvery=%d", ckEvery), func(t *testing.T) {
			args := append([]string{"-data-dir", t.TempDir(), "-checkpoint-every", strconv.Itoa(ckEvery)}, engine...)
			runScript(t, head+inserts(0, phase1), args...)
			out := runScript(t, inserts(phase1, total), args...)
			if !strings.HasPrefix(out, "OK attached q1\n") {
				t.Fatalf("resumed run does not start by attaching q1:\n%s", out)
			}
			if got, want := dataLines(out), ref[len(ref)-(total-phase1):]; !slices.Equal(got, want) {
				t.Fatalf("resumed DATA diverged:\ngot:  %q\nwant: %q", got, want)
			}
		})
	}
}

// TestScriptAbortsOnErr: with -f the first ERR stops the script with
// "asdb: file:line: message" and exit status 1; the lines before it ran.
func TestScriptAbortsOnErr(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.asdb")
	if err := os.WriteFile(path, []byte("STREAM s x:dist\n\nSTATS nosuch\nSTREAM never x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-f", path, "-batch"}, strings.NewReader(""), &out, &errOut)
	wantErr := fmt.Sprintf("asdb: %s:3: unknown query %q\n", path, "nosuch")
	if code != 1 || out.String() != "OK stream s\n" || errOut.String() != wantErr {
		t.Fatalf("exit %d\nstdout: %q\nstderr: %q\nwant stderr: %q", code, out.String(), errOut.String(), wantErr)
	}
}

// TestDialedMatchesEmbedded: with -addr, asdb prints the same bytes for a
// session against a running daemon as it does in process.
func TestDialedMatchesEmbedded(t *testing.T) {
	src, err := os.ReadFile("testdata/end_to_end.asdb")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	dialed := runScript(t, string(src), "-addr", addr.String())
	if embedded := runScript(t, string(src), "-seed", "1"); dialed != embedded {
		t.Fatalf("dialed session diverged from the in-process one:\ndialed:\n%s\nembedded:\n%s", dialed, embedded)
	}
}

// TestLoadChunks: LOAD sends a CSV of more keys than one INSERTBATCH line
// holds as several lines, and its reply totals theirs.
func TestLoadChunks(t *testing.T) {
	const keys = 2*loadChunk + 44
	var csv strings.Builder
	csv.WriteString("k,v\n")
	for k := 0; k < keys; k++ {
		fmt.Fprintf(&csv, "%d,%d\n%d,%d\n", k, k, k, k+2)
	}
	path := filepath.Join(t.TempDir(), "many.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runScript(t, "STREAM s k v:dist\nQUERY q SELECT k, v FROM s\nLOAD s "+path+" KEY k VALUE v\nSTATS q\n")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	want := []string{fmt.Sprintf("OK loaded tuples=%d results=%d", keys, keys),
		fmt.Sprintf(`OK {"In":%d,"Out":%d,"Dropped":0,"Unsure":0,"Joined":0,"Shed":0}`, keys, keys)}
	if n := len(dataLines(out)); n != keys || !slices.Equal(lines[len(lines)-2:], want) {
		t.Fatalf("%d DATA lines, want %d; last lines %q, want %q", n, keys, lines[len(lines)-2:], want)
	}
}
