package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// valuesOf collects one metric's value over a file's repeats of a workload;
// with traced set, over the repeats a traced run was merged into, the only
// ones that hold per-layer numbers.
func valuesOf(f *resultFile, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || (traced && !r.Trace) {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the lowest and highest repeat, as a share
// of the median: with the two or three repeats a result file holds, the
// range is the only spread there is.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return ratio(hi-lo, math.Abs(median(v)))
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their relative difference, the bound and floor, and a verdict; per-layer
// rows follow without one. It reports whether any verdict was "worse".
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "WARNING: the files differ in host or run length (%s ×%d, %gs vs %s ×%d, %gs)\n",
			a.Host.CPUModel, a.Host.NProc, a.Seconds, b.Host.CPUModel, b.Host.NProc, b.Seconds)
	}
	anyWorse := false
	for _, wl := range workloads() {
		if len(valuesOf(a, wl.name, "setup_s", false)) == 0 || len(valuesOf(b, wl.name, "setup_s", false)) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n   %-28s %14s %14s %9s %7s %8s  %s\n", wl.name, "metric", "a", "b", "diff", "bound", "floor", "verdict")
		for _, d := range endToEnd {
			va, vb := valuesOf(a, wl.name, d.name, false), valuesOf(b, wl.name, d.name, false)
			ma, mb := median(va), median(vb)
			// diff > 0 means b is worse than a.
			diff := ratio(mb-ma, math.Abs(ma))
			if d.better == "higher" {
				diff = -diff
			}
			verdict := "same"
			switch {
			case math.Max(spread(va), spread(vb)) > d.bound:
				verdict = "unresolved"
			case math.Abs(diff) <= d.bound || math.Abs(mb-ma) <= d.floor:
			case diff > 0:
				verdict = "worse"
				anyWorse = true
			default:
				verdict = "better"
			}
			fmt.Fprintf(w, "   %-28s %14.4f %14.4f %+8.1f%% %6.0f%% %8g  %s\n", d.name, ma, mb, 100*diff, 100*d.bound, d.floor, verdict)
		}
		for _, r := range [][]*runResult{a.Runs, b.Runs} {
			for _, run := range r {
				if run.Workload == wl.name && (run.Failed > 0 || len(run.Invalid) > 0) {
					fmt.Fprintf(w, "   seed %d: failed %d of %d, invalid: %v\n", run.Seed, run.Failed, run.Attempted, run.Invalid)
					anyWorse = true
				}
			}
		}
		for _, d := range perLayer {
			va, vb := valuesOf(a, wl.name, d.name, true), valuesOf(b, wl.name, d.name, true)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "   %-28s %14.4f %14.4f  %s\n", d.name, median(va), median(vb), d.unit)
		}
	}
	return anyWorse, nil
}
