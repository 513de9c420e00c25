package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and names.go/workloads.go
// from drifting apart: same workloads, same metrics, same units, same
// direction, same bounds, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	wls := workloads()
	if len(m.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(wls))
	}
	for i, wl := range wls {
		if m.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, m.Workloads[i].Name, wl.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, names.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, names.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from names.go's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestSmoke runs every workload for a second at a tenth of its rate against
// a real asdbd child, untraced and traced, and requires the reference and
// durability checks to pass and the driver's result to hold exactly the
// metrics BENCHMARK.json names, each finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts asdbd child processes")
	}
	m := readManifest(t)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runOpts{wl: wl, seed: 7, seconds: 1, trace: trace, scale: 0.1,
				root: root, bin: bin, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", wl.name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			if res.Samples["reference_checked_lines"] == 0 {
				t.Errorf("%s trace=%v: the reference check compared no DATA line", wl.name, trace)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			got := driverResultOf(res).Metrics
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", wl.name, trace, len(got), len(want))
			}
			for _, d := range want {
				v, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", wl.name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json %q", wl.name, trace, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: metric %s is %v", wl.name, trace, d.Name, v.Value)
				case v.Value < 0:
					t.Errorf("%s trace=%v: metric %s is %v", wl.name, trace, d.Name, v.Value)
				case !trace && v.Value == 0 && d.Name != "server_cpu_us_per_tuple":
					// (A 0.2 s slice at a tenth of the rate can pass without
					// one 10 ms tick of server CPU; at full scale none can.)
					t.Errorf("%s: end-to-end metric %s is 0, must be positive", wl.name, d.Name)
				}
			}
		}
	}
}
