// Command bench is the repository's standing benchmark: a load generator
// that builds and starts a real cmd/asdbd child on loopback, drives it over
// the line protocol with inputs made from a seed, checks every result
// against an in-process reference, and prints each metric by name with its
// unit. README.md in this directory describes the workloads, the metrics
// and how they interact; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
// Three ways to run it:
//
//	bash bench/run.sh --workload wire-small --seed 1 --seconds 12 --trace 0
//	    one run of one workload; the last line of standard output is one
//	    JSON object (the form BENCHMARK.json's command takes)
//	bash bench/run.sh [-workloads a,b] [-sets 2] [-seed 1] [-trace 1] [-out f]
//	    every workload, -sets times with consecutive seeds, as tables, and
//	    as JSON in bench/out/result.json
//	bash bench/run.sh -compare a.json b.json
//	    two result files, metric by metric against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}

// run is main with an exit code, so that deferred clean-up (child processes)
// always happens before the process exits.
func run() (int, error) {
	workloadName := flag.String("workload", "", "run this one workload and print one JSON result line")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 16, "seconds one run measures (capacity + paced phase)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	list := flag.String("workloads", "", "comma-separated workloads for a suite run (default all)")
	sets := flag.Int("sets", 1, "suite run: repeats of every workload, with consecutive seeds")
	out := flag.String("out", "", "suite run: result file (default bench/out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	keepWarm := flag.Bool("keepwarm", false, "internal: run as a keep-warm spinner (see keepwarm.go)")
	flag.Parse()
	if *keepWarm {
		return keepWarmMain(), nil
	}
	if *compare {
		if flag.NArg() != 2 {
			return 2, fmt.Errorf("usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil || !worse {
			return 0, err
		}
		return 1, nil
	}

	if err := guardHost(); err != nil {
		return 2, err
	}
	root, err := repoRoot()
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return 2, err
	}
	bin, buildSeconds, err := buildServer(root)
	if err != nil {
		return 2, err
	}
	defer startKeepWarm()()
	outDir := filepath.Join(root, "bench", "out")
	base := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, root: root, bin: bin, outDir: outDir}

	if *workloadName != "" {
		base.wl = workloadByName(*workloadName)
		if base.wl == nil {
			return 2, fmt.Errorf("unknown workload %q", *workloadName)
		}
		res, err := runWorkload(base)
		if err != nil {
			return 2, err
		}
		return printDriverResult(res, buildSeconds)
	}

	var wls []*workload
	for _, wl := range workloads() {
		if *list == "" || strings.Contains(","+*list+",", ","+wl.name+",") {
			wls = append(wls, wl)
		}
	}
	if len(wls) == 0 {
		return 2, fmt.Errorf("no workload matches -workloads %q", *list)
	}
	file := resultFile{Host: hostHeader(root, buildDir(root)), Seed: *seed, Seconds: *seconds, BuildS: buildSeconds}
	bad := false
	for set := 0; set < *sets; set++ {
		for _, wl := range wls {
			o := base
			o.wl, o.seed, o.trace = wl, *seed+int64(set), false
			res, err := runWorkload(o)
			if err != nil {
				return 2, err
			}
			if *trace != 0 && set == 0 {
				// Per-layer numbers come from a separate traced run; its
				// end-to-end numbers are discarded.
				o.trace = true
				traced, err := runWorkload(o)
				if err != nil {
					return 2, err
				}
				mergeTraced(res, traced)
			}
			printRun(os.Stdout, res)
			file.Runs = append(file.Runs, res)
			bad = bad || !res.Correct || len(res.Invalid) > 0
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	if err := writeJSON(path, file); err != nil {
		return 2, err
	}
	fmt.Printf("\nbuild_s %.3f s (go build ./cmd/asdbd; not part of setup_s)\nwrote %s\n", buildSeconds, path)
	if bad {
		fmt.Println("FAILED: a run was incorrect or invalid; its numbers must not be used")
		return 1, nil
	}
	return 0, nil
}

// guardHost enforces the host sizing on the generator's side: it never runs
// on more processors than the machine has. (runWorkload refuses a workload
// with more connections than processors.)
func guardHost() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", p, n)
	}
	return nil
}

// driverResult is the one-line result the benchmark driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverResultOf selects what the driver is shown: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func driverResultOf(res *runResult) driverResult {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	out := driverResult{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = res.Metrics[d.name]
	}
	return out
}

// printDriverResult prints the result line last on standard output, what
// the checks found on standard error, and returns the exit code.
func printDriverResult(res *runResult, buildSeconds float64) (int, error) {
	for _, msg := range res.Errors {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
	for _, msg := range res.Invalid {
		fmt.Fprintln(os.Stderr, "bench: INVALID:", msg)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: build_s %.3f, %d DATA lines checked against the reference\n",
		res.Workload, res.Seed, buildSeconds, res.Samples["reference_checked_lines"])
	line, err := json.Marshal(driverResultOf(res))
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// mergeTraced copies the traced run's per-layer metrics, shares and check
// results into the untraced run's result.
func mergeTraced(res, traced *runResult) {
	for _, d := range perLayer {
		res.Metrics[d.name] = traced.Metrics[d.name]
		if n, ok := traced.Samples[d.name]; ok {
			res.Samples[d.name] = n
		}
	}
	res.Shares = traced.Shares
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	res.Errors = append(res.Errors, traced.Errors...)
	res.Invalid = append(res.Invalid, traced.Invalid...)
	res.Correct = res.Correct && traced.Correct
	res.Trace = true
}

// printRun prints one run as a table: every metric by name, with its unit.
func printRun(w *os.File, res *runResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  attempted %d  failed %d  failed_frac %.6f  reference-checked DATA lines %d\n",
		res.Workload, res.Seed, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Samples["reference_checked_lines"])
	for _, msg := range res.Errors {
		fmt.Fprintln(w, "   FAILED:", msg)
	}
	for _, msg := range res.Invalid {
		fmt.Fprintln(w, "   INVALID (numbers below must not be used):", msg)
	}
	row := func(d metricDef) {
		v, ok := res.Metrics[d.name]
		if !ok {
			return
		}
		n := ""
		if c, ok := res.Samples[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "   %-32s %14.4f %-6s%s\n", d.name, v.Value, v.Unit, n)
	}
	for _, d := range endToEnd {
		row(d)
	}
	if !res.Trace {
		return
	}
	fmt.Fprintln(w, "   -- per layer (ungated)")
	for _, d := range perLayer {
		row(d)
	}
	if len(res.Shares) > 0 {
		names := make([]string, 0, len(res.Shares))
		for name := range res.Shares {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprint(w, "   -- share of asdbd's command time:")
		for _, name := range names {
			fmt.Fprintf(w, "  %s %.1f%%", name, 100*res.Shares[name])
		}
		fmt.Fprintln(w)
	}
	if c := res.Metrics["trace.coverage_frac"].Value; c < 0.5 || c > 1.2 {
		fmt.Fprintf(w, "   WARNING: trace.coverage_frac %.2f outside 0.5–1.2: the twin's stages do not explain asdbd's command time\n", c)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
