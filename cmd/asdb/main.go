// Command asdb is a local REPL over an embedded accuracy-aware uncertain
// stream database — no server needed. It accepts the same STREAM / QUERY /
// INSERT / LOAD / STATS / EXPLAIN / CLOSE commands as the network protocol,
// executes them against an in-process engine, and prints results (with
// accuracy information) immediately.
//
// Usage:
//
//	asdb [-level 0.9] [-method analytical] [-seed 1] [-f script.asdb] [-batch]
//	     [-data-dir DIR] [-fsync always|interval|none] [-checkpoint-every N]
//
// With -f, commands are read from the file before the interactive prompt
// starts; -batch exits after the script.
//
// With -data-dir the session is durable: commands are journaled to a
// write-ahead log and the engine is checkpointed, so a later asdb run with
// the same -data-dir (and same engine flags) resumes exactly where this
// one stopped — windows, learned distributions, and RNG states included.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/repl"
)

func main() {
	level := flag.Float64("level", 0.9, "confidence level")
	method := flag.String("method", "analytical", "accuracy method: none | analytical | bootstrap")
	seed := flag.Uint64("seed", 1, "engine RNG seed")
	script := flag.String("f", "", "script file to execute before the prompt")
	batch := flag.Bool("batch", false, "exit after the script (no interactive prompt)")
	dataDir := flag.String("data-dir", "", "durability directory (empty = in-memory only)")
	fsyncPolicy := flag.String("fsync", "interval", "WAL fsync policy: always | interval | none")
	ckEvery := flag.Int("checkpoint-every", 1024, "checkpoint after this many journaled commands")
	debugAddr := flag.String("debug-addr", "", "HTTP observability listener (/debug/metrics, /debug/vars, /debug/pprof); empty disables")
	flag.Parse()

	if *debugAddr != "" {
		metrics.Default.PublishExpvar("asdb")
		http.Handle("/debug/metrics", metrics.Default.Handler())
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "asdb: debug listener: %v\n", err)
			}
		}()
	}

	var m core.AccuracyMethod
	switch *method {
	case "none":
		m = core.AccuracyNone
	case "analytical":
		m = core.AccuracyAnalytical
	case "bootstrap":
		m = core.AccuracyBootstrap
	default:
		fmt.Fprintf(os.Stderr, "asdb: unknown method %q\n", *method)
		os.Exit(2)
	}
	r, err := repl.New(core.Config{
		Level: *level, Method: m, Seed: *seed,
		DataDir: *dataDir, FsyncPolicy: *fsyncPolicy, CheckpointEvery: *ckEvery,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdb: %v\n", err)
		os.Exit(1)
	}
	// fail flushes durable state before exiting (os.Exit skips defers).
	fail := func(format string, args ...any) {
		if cerr := r.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "asdb: close: %v\n", cerr)
		}
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fail("asdb: %v\n", err)
		}
		scanner := bufio.NewScanner(f)
		scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		lineNo := 0
		for scanner.Scan() {
			lineNo++
			if err := r.Exec(scanner.Text()); err != nil {
				f.Close()
				fail("asdb: %s:%d: %v\n", *script, lineNo, err)
			}
		}
		f.Close()
	}
	if !*batch {
		fmt.Fprintln(os.Stderr, "asdb — accuracy-aware uncertain stream database (HELP for commands, ctrl-D to exit)")
		in := bufio.NewScanner(os.Stdin)
		in.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for {
			fmt.Fprint(os.Stderr, "asdb> ")
			if !in.Scan() {
				break
			}
			if err := r.Exec(in.Text()); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
	}
	if err := r.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "asdb: close: %v\n", err)
		os.Exit(1)
	}
}
