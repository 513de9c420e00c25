package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// quickCfg is the reduced configuration used by tests; deterministic seed.
func quickCfg() Config {
	return Config{Quick: true, Seed: 7, Segments: 150}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := []string{"4a", "4b", "4c", "4d", "5a", "5b", "5c", "5d", "5e", "5f", "5g", "5h", "x1", "x2", "x3"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("9z", quickCfg()); err == nil {
		t.Error("unknown figure: want error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Seed == 0 || c.Segments == 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if got := (Config{Quick: true}).scale(100, 3); got != 10 {
		t.Errorf("scale = %d, want 10", got)
	}
	if got := (Config{Quick: true}).scale(20, 5); got != 5 {
		t.Errorf("scale floor = %d, want 5", got)
	}
	if got := (Config{}).scale(100, 3); got != 100 {
		t.Errorf("full scale = %d, want 100", got)
	}
}

// TestFig4aShape checks the headline claim behind Figure 4(a): the mean
// interval length decays roughly like 1/√n.
func TestFig4aShape(t *testing.T) {
	f, err := Fig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ys := f.Series[0].Y
	if len(ys) != len(fig4SampleSizes) {
		t.Fatalf("rows = %d", len(ys))
	}
	// Strictly decreasing within noise; endpoints obey the √ law ±40%.
	if !(ys[0] > ys[len(ys)-1]) {
		t.Fatalf("interval length did not decrease: %v", ys)
	}
	wantRatio := theoreticalHalfWidthRatio(80, 10) // = sqrt(10/80)
	gotRatio := ys[len(ys)-1] / ys[0]
	if gotRatio < wantRatio*0.6 || gotRatio > wantRatio*1.6 {
		t.Errorf("decay ratio %g, want ≈%g", gotRatio, wantRatio)
	}
}

// TestFig4cShape: variance intervals miss most on heavy-tailed delays; bin
// heights stay near the nominal rate.
func TestFig4cShape(t *testing.T) {
	f, err := Fig4c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	avg := func(ys []float64) float64 {
		s := 0.0
		for _, v := range ys {
			s += v
		}
		return s / float64(len(ys))
	}
	var bin, variance float64
	for _, s := range f.Series {
		switch s.Name {
		case "bin heights":
			bin = avg(s.Y)
		case "variance":
			variance = avg(s.Y)
		}
	}
	if !(variance > bin) {
		t.Errorf("variance miss rate %g not above bin heights %g", variance, bin)
	}
	if bin > 0.2 {
		t.Errorf("bin-height miss rate %g implausibly high", bin)
	}
}

// TestFig4dBounds: all five distributions stay at modest miss rates.
func TestFig4dBounds(t *testing.T) {
	f, err := Fig4d(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	if len(s.Y) != 5 || len(s.XLabels) != 5 {
		t.Fatalf("series = %+v", s)
	}
	for i, v := range s.Y {
		if v < 0 || v > 0.35 {
			t.Errorf("%s miss rate %g out of plausible range", s.XLabels[i], v)
		}
	}
}

// TestFig5aShape: bootstrap means are tighter than analytical; bootstrap
// miss rates stay low.
func TestFig5aShape(t *testing.T) {
	f, err := Fig5a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		ratio, miss := s.Y[0], s.Y[1]
		if s.Name == "mean" && ratio >= 1 {
			t.Errorf("bootstrap mean interval ratio %g, want < 1", ratio)
		}
		if miss > 0.2 {
			t.Errorf("%s bootstrap miss rate %g too high", s.Name, miss)
		}
	}
}

// TestFig5cOrdering: accuracy computation costs throughput; bootstrap costs
// more than analytical. Each arm is one short wall-clock run, so Fig5c runs
// five times and each arm's median throughput is compared: one run slowed
// by host load cannot flip the order.
func TestFig5cOrdering(t *testing.T) {
	const runs = 5
	var arms [3][]float64
	for i := 0; i < runs; i++ {
		f, err := Fig5c(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		y := f.Series[0].Y
		if len(y) != 3 {
			t.Fatalf("series = %v", y)
		}
		for a := range arms {
			arms[a] = append(arms[a], y[a])
		}
	}
	for a := range arms {
		sort.Float64s(arms[a])
	}
	qp, an, bo := arms[0][runs/2], arms[1][runs/2], arms[2][runs/2]
	// Bootstrap costs the most; analytical sits between bootstrap and the
	// accuracy-free baseline. Allow a little scheduler noise on the
	// qp-vs-analytical gap, which is small by design.
	if !(bo < an && bo < qp) {
		t.Errorf("bootstrap should be slowest: qp=%g an=%g bo=%g", qp, an, bo)
	}
	if an > qp*1.15 {
		t.Errorf("analytical faster than QP-only beyond noise: qp=%g an=%g", qp, an)
	}
	if bo < qp/20 {
		t.Errorf("bootstrap overhead implausibly large: qp=%g bo=%g", qp, bo)
	}
}

// TestFig5deErrorControl: the single test bounds FP only; coupled tests
// bound both error rates.
func TestFig5deErrorControl(t *testing.T) {
	cfg := quickCfg()
	d, err := Fig5d(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Fig5e(cfg)
	if err != nil {
		t.Fatal(err)
	}
	comparisons := 2.0 * float64(cfg.scale(100, 10))
	perRow := comparisons / 2 // 100 H0-true + 100 H1-true per row
	for _, s := range d.Series {
		if s.Name != "false positives" {
			continue
		}
		for i, v := range s.Y {
			if v > 0.05*perRow+2 {
				t.Errorf("fig5d FP at n=%v: %v exceeds bound", s.X[i], v)
			}
		}
	}
	var fp, fn, unsure []float64
	for _, s := range e.Series {
		switch s.Name {
		case "false positives":
			fp = s.Y
		case "false negatives":
			fn = s.Y
		case "unsure comparisons":
			unsure = s.Y
		}
	}
	for i := range fp {
		if fp[i] > 0.05*perRow+2 || fn[i] > 0.05*perRow+2 {
			t.Errorf("fig5e error bound violated at row %d: fp=%v fn=%v", i, fp[i], fn[i])
		}
	}
	// UNSURE shrinks from the smallest to the largest n (allowing noise).
	if unsure[len(unsure)-1] > unsure[0] {
		t.Errorf("unsure did not shrink: %v", unsure)
	}
}

// TestFig5gPowerIncreasing: power grows with δ for every distribution, and
// uniform dominates at δ = 0.4 (the small-variance effect the paper notes).
func TestFig5gPowerIncreasing(t *testing.T) {
	f, err := Fig5g(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var uniformAt4, normalAt4 float64
	for _, s := range f.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last <= first {
			t.Errorf("%s power did not increase: %v", s.Name, s.Y)
		}
		for i, x := range s.X {
			if x == 0.4 {
				if s.Name == "uniform" {
					uniformAt4 = s.Y[i]
				}
				if s.Name == "normal" {
					normalAt4 = s.Y[i]
				}
			}
		}
	}
	if uniformAt4 <= normalAt4 {
		t.Errorf("uniform power %g should dominate normal %g at δ=0.4", uniformAt4, normalAt4)
	}
}

// TestFig5hDistributionFree: at τ = 0.7 the five curves nearly coincide
// (the proportion statistic is quantile-based).
func TestFig5hDistributionFree(t *testing.T) {
	f, err := Fig5h(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var at7 []float64
	for _, s := range f.Series {
		for i, x := range s.X {
			if x == 0.7 {
				at7 = append(at7, s.Y[i])
			}
		}
	}
	if len(at7) != 5 {
		t.Fatalf("missing τ=0.7 points: %v", at7)
	}
	lo, hi := at7[0], at7[0]
	for _, v := range at7 {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo > 0.25 {
		t.Errorf("power spread %g at τ=0.7 too wide for a distribution-free test: %v", hi-lo, at7)
	}
}

func TestRenderAndCSV(t *testing.T) {
	f := &Figure{
		ID:     "t",
		Title:  "test figure",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a,b", X: []float64{1, 2}, Y: []float64{0.5, 1}},
			{Name: "c", X: []float64{1, 2}, Y: []float64{3}},
		},
		Notes: "note",
	}
	text := f.Render()
	if !strings.Contains(text, "test figure") || !strings.Contains(text, "note") {
		t.Errorf("render: %q", text)
	}
	if !strings.Contains(text, "-") { // short series padded
		t.Errorf("short series not padded: %q", text)
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "x,\"a,b\",c\n") {
		t.Errorf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1,0.5,3\n") {
		t.Errorf("csv rows: %q", csv)
	}
	// Categorical labels render too.
	f2 := &Figure{ID: "t2", Series: []Series{{Name: "v", XLabels: []string{"one"}, Y: []float64{2}}}}
	if !strings.Contains(f2.Render(), "one") || !strings.Contains(f2.CSV(), "one") {
		t.Error("categorical labels missing")
	}
	// Empty figure renders its header only.
	f3 := &Figure{ID: "t3", Title: "empty"}
	if !strings.Contains(f3.Render(), "empty") || f3.CSV() == "" {
		t.Error("empty figure render failed")
	}
}

// TestRunAllQuick is the end-to-end smoke test: every figure builds without
// error under the quick configuration.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	figs, err := RunAll(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 15 {
		t.Fatalf("figures = %d, want 15", len(figs))
	}
	for _, f := range figs {
		if f.Render() == "" || f.CSV() == "" {
			t.Errorf("figure %s rendered empty", f.ID)
		}
	}
}

// TestFigX1DecayUnderDrift: the extension experiment's headline — under
// drift, recency weighting cuts the estimation error and preserves interval
// coverage while the plain interval's coverage collapses.
func TestFigX1DecayUnderDrift(t *testing.T) {
	f, err := FigX1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Name] = s.Y
	}
	// At every non-zero drift the decayed estimator has lower error.
	for i := 1; i < len(series["RMSE plain"]); i++ {
		if series["RMSE decayed"][i] >= series["RMSE plain"][i] {
			t.Errorf("row %d: decayed RMSE %g should beat plain %g",
				i, series["RMSE decayed"][i], series["RMSE plain"][i])
		}
	}
	// At mild drift, plain coverage collapses while decayed retains some.
	if series["coverage plain"][1] > 0.2 {
		t.Errorf("plain coverage %g should collapse at mild drift", series["coverage plain"][1])
	}
	if series["coverage decayed"][1] <= series["coverage plain"][1] {
		t.Errorf("decayed coverage %g should beat plain %g at mild drift",
			series["coverage decayed"][1], series["coverage plain"][1])
	}
	// Without drift the two are comparable and both cover nominally.
	if series["coverage plain"][0] < 0.8 || series["coverage decayed"][0] < 0.8 {
		t.Errorf("no-drift coverage too low: plain %g, decayed %g",
			series["coverage plain"][0], series["coverage decayed"][0])
	}
}

// TestFigX3SwitchRule: Wald misses badly at small n·p; the switched rule
// stays near Wilson's behaviour.
func TestFigX3SwitchRule(t *testing.T) {
	f, err := FigX3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Name] = s.Y
	}
	wald := series["Wald everywhere"]
	wilson := series["Wilson everywhere"]
	switched := series["paper's switch (n·p ≥ 4)"]
	// At p = 0.02 (n·p = 0.8) Wald's miss rate explodes.
	if wald[0] < 0.3 {
		t.Errorf("Wald at tiny n·p missed only %g, expected collapse", wald[0])
	}
	if wilson[0] > 0.15 || switched[0] > 0.15 {
		t.Errorf("Wilson %g / switched %g should stay near nominal at tiny n·p",
			wilson[0], switched[0])
	}
	// At p = 0.4 all three behave.
	last := len(wald) - 1
	for name, ys := range series {
		if ys[last] > 0.16 {
			t.Errorf("%s at p=0.4 misses %g", name, ys[last])
		}
	}
}

// TestFigX2Convergence: the bootstrap interval covers at near-nominal
// rates for every r and the r=20 default is in the stable region.
func TestFigX2Convergence(t *testing.T) {
	f, err := FigX2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var lens, misses []float64
	for _, s := range f.Series {
		switch s.Name {
		case "interval length":
			lens = s.Y
		case "miss rate":
			misses = s.Y
		}
	}
	for i, m := range misses {
		if m > 0.12 {
			t.Errorf("miss rate %g at r=%v exceeds nominal", m, f.Series[0].X[i])
		}
	}
	// Lengths at r=20 and r=80 agree within 30%.
	var l20, l80 float64
	for i, x := range f.Series[0].X {
		if x == 20 {
			l20 = lens[i]
		}
		if x == 80 {
			l80 = lens[i]
		}
	}
	if l20 == 0 || l80 == 0 || l20/l80 < 0.7 || l20/l80 > 1.3 {
		t.Errorf("length not converged: r=20 → %g, r=80 → %g", l20, l80)
	}
}
