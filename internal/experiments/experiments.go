// Package experiments regenerates every figure of the paper's evaluation
// (§V): Fig 4(a)–(d) for the analytical accuracy methods, and Fig 5(a)–(h)
// for bootstraps, throughput, and significance predicates. Each FigNx
// function returns a Figure holding the same series the paper plots;
// cmd/experiments renders them as aligned text tables and CSV, and
// bench_test.go wraps each in a testing.B benchmark.
//
// Absolute numbers differ from the paper (synthetic CarTel data, different
// hardware) but the shapes the paper argues from are preserved; see
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Config scales the experiments.
type Config struct {
	// Seed drives every random choice; same seed, same figures.
	Seed uint64
	// Quick shrinks trial counts by ~10× for CI and benchmarks.
	Quick bool
	// Segments is the simulated road-network size (default 300).
	Segments int
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Segments == 0 {
		c.Segments = 300
	}
	return c
}

// scale reduces a trial count in Quick mode, keeping at least min.
func (c Config) scale(n, min int) int {
	if !c.Quick {
		return n
	}
	n /= 10
	if n < min {
		n = min
	}
	return n
}

// Series is one plotted line (or bar group) of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// XLabels replaces numeric X with categorical labels (bar charts).
	XLabels []string
}

// Figure is the regenerated content of one paper figure.
type Figure struct {
	ID     string // e.g. "4a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// Render formats the figure as an aligned text table, series as columns.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — %s\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Fprintf(&b, "  (%s)\n", f.Notes)
	}
	if len(f.Series) == 0 {
		return b.String()
	}
	// Header.
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	// Collect x labels from the first series.
	first := f.Series[0]
	rows := len(first.Y)
	table := make([][]string, 0, rows+1)
	table = append(table, cols)
	for i := 0; i < rows; i++ {
		row := make([]string, 0, len(cols))
		switch {
		case first.XLabels != nil:
			row = append(row, first.XLabels[i])
		case first.X != nil:
			row = append(row, trimFloat(first.X[i]))
		default:
			row = append(row, fmt.Sprint(i))
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, trimFloat(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		table = append(table, row)
	}
	widths := make([]int, len(cols))
	for _, row := range table {
		for j, cell := range row {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	for _, row := range table {
		for j, cell := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	first := f.Series[0]
	for i := range first.Y {
		switch {
		case first.XLabels != nil:
			b.WriteString(csvEscape(first.XLabels[i]))
		case first.X != nil:
			b.WriteString(trimFloat(first.X[i]))
		default:
			fmt.Fprint(&b, i)
		}
		for _, s := range f.Series {
			b.WriteByte(',')
			if i < len(s.Y) {
				b.WriteString(trimFloat(s.Y[i]))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// figureFunc builds one figure.
type figureFunc func(Config) (*Figure, error)

// registry maps figure IDs to their builders.
var registry = map[string]figureFunc{
	"4a": Fig4a,
	"4b": Fig4b,
	"4c": Fig4c,
	"4d": Fig4d,
	"5a": Fig5a,
	"5b": Fig5b,
	"5c": Fig5c,
	"5d": Fig5d,
	"5e": Fig5e,
	"5f": Fig5f,
	"5g": Fig5g,
	"5h": Fig5h,
	"x1": FigX1,
	"x2": FigX2,
	"x3": FigX3,
}

// IDs returns all figure IDs in presentation order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run builds the figure with the given ID.
func Run(id string, cfg Config) (*Figure, error) {
	fn, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	return fn(cfg.Normalize())
}
