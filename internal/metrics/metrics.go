// Package metrics is the engine's stdlib-only observability substrate: a
// registry of named counters, gauges, and fixed-bucket histograms whose hot
// paths are single atomic operations — no locks, no allocations, no maps.
//
// The design constraints come from the engine it instruments:
//
//   - Observation-only. Nothing here touches engine state or RNG streams,
//     so instrumented code remains bit-deterministic (verified by the
//     determinism and crash-recovery suites running with metrics enabled).
//   - Allocation-free on the hot path. Counter.Add and Gauge.Set are one
//     atomic op; Histogram.Observe is a branch-free bucket search plus two
//     atomic adds and a CAS loop for the sum. The throughput paths
//     (query push, WAL append, bootstrap resampling) call these per tuple.
//   - Stdlib only. Exposition is Prometheus text format (see WriteProm),
//     expvar, and a JSON snapshot for the METRICS protocol command —
//     no third-party client library.
//
// Metrics are registered once (typically in package-level var blocks) and
// then shared; registering the same name twice returns the same metric, so
// independent packages can safely name their instruments at init time.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (occupancy, queue depth, size).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64-valued gauge stored as atomic bits — for
// quantities like replication lag seconds where integer resolution is too
// coarse. Same 0-alloc hot path as Gauge.
type FloatGauge struct {
	v atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket cumulative histogram of float64 observations
// (latencies in seconds, interval widths, byte counts). Bucket bounds are
// immutable after construction; an implicit +Inf bucket catches the tail.
type Histogram struct {
	bounds []float64 // ascending upper bounds (inclusive: v ≤ bound)
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value v in one step: its
// bucket and the count grow by n, the sum by n·v.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if math.IsNaN(v) || n == 0 {
		return
	}
	// Branchy linear scan beats binary search for the small (≤ ~16) bucket
	// counts used here, and keeps the path allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + add)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0 in seconds — the idiom for
// latency instrumentation: defer h.ObserveSince(time.Now()) or an explicit
// pair around the timed region.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram for exposition.
// Counts has len(Bounds)+1 entries; the last is the +Inf bucket. Counts are
// per-bucket (not cumulative); WriteProm accumulates for the `le` series.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. The copy is not atomic
// across buckets (observations may land mid-copy), which is fine for
// monitoring: every observation is eventually visible.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: h.bounds, // immutable; shared
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// DefBuckets are the default latency buckets in seconds, spanning 1µs to
// ~10s — wide enough for both in-memory pushes and fsync-bound appends.
var DefBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	2.5e-3, 10e-3, 50e-3, 250e-3, 1, 10,
}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindFloatGauge
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindFloatGauge:
		return "float gauge"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

type entry struct {
	name string
	help string
	kind kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fg   *FloatGauge
}

// Registry holds named metrics. Registration is idempotent by name; a name
// collision across kinds panics (a programming error, caught at init).
// The zero Registry is not usable; call NewRegistry or use Default.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry every instrumented package
// registers into; the daemon's /debug/metrics page and the METRICS
// protocol command expose it.
var Default = NewRegistry()

func (r *Registry) lookup(name string, k kind) *entry {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != k {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, e.kind, k))
		}
		return e
	}
	return nil
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name, help string) *Counter {
	if e := r.lookup(name, kindCounter); e != nil {
		return e.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[name]; e != nil {
		if e.kind != kindCounter {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as counter", name, e.kind))
		}
		return e.c
	}
	c := &Counter{}
	r.entries[name] = &entry{name: name, help: help, kind: kindCounter, c: c}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name, help string) *Gauge {
	if e := r.lookup(name, kindGauge); e != nil {
		return e.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[name]; e != nil {
		if e.kind != kindGauge {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as gauge", name, e.kind))
		}
		return e.g
	}
	g := &Gauge{}
	r.entries[name] = &entry{name: name, help: help, kind: kindGauge, g: g}
	return g
}

// FloatGauge returns the float gauge registered under name, creating it
// if new.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if e := r.lookup(name, kindFloatGauge); e != nil {
		return e.fg
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[name]; e != nil {
		if e.kind != kindFloatGauge {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as float gauge", name, e.kind))
		}
		return e.fg
	}
	fg := &FloatGauge{}
	r.entries[name] = &entry{name: name, help: help, kind: kindFloatGauge, fg: fg}
	return fg
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if new (bounds of an existing histogram win).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if e := r.lookup(name, kindHistogram); e != nil {
		return e.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[name]; e != nil {
		if e.kind != kindHistogram {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as histogram", name, e.kind))
		}
		return e.h
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := newHistogram(bounds)
	r.entries[name] = &entry{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

// sorted returns the entries in name order (a fresh slice; safe to iterate
// without the lock).
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot is a point-in-time copy of a registry, JSON-encodable for the
// METRICS protocol command. Maps marshal with sorted keys, so the wire form
// is deterministic for deterministic values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// FloatGauges is omitted while empty so snapshots from processes without
	// float gauges keep their pre-existing wire shape.
	FloatGauges map[string]float64 `json:"float_gauges,omitempty"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			out.Counters[e.name] = e.c.Value()
		case kindGauge:
			out.Gauges[e.name] = e.g.Value()
		case kindHistogram:
			out.Histograms[e.name] = e.h.Snapshot()
		case kindFloatGauge:
			if out.FloatGauges == nil {
				out.FloatGauges = make(map[string]float64)
			}
			out.FloatGauges[e.name] = e.fg.Value()
		}
	}
	return out
}
