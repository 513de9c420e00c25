package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c_total", ""); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// NaN is dropped; 0.5 and 1 land in ≤1; 1.5 in ≤2; 3 in ≤4; 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.5+3+100; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestHistogramObserveN: n observations in one step land where n single
// observations would, and n = 0 or a NaN value records nothing.
func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	one := r.Histogram("one", "", []float64{1, 2, 4})
	many := r.Histogram("many", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		for i := 0; i < 7; i++ {
			one.Observe(v)
		}
		many.ObserveN(v, 7)
	}
	many.ObserveN(2, 0)
	many.ObserveN(math.NaN(), 3)
	a, b := one.Snapshot(), many.Snapshot()
	if fmt.Sprint(a.Counts) != fmt.Sprint(b.Counts) || a.Count != b.Count || a.Sum != b.Sum {
		t.Fatalf("ObserveN %+v, Observe %+v", b, a)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hc", "", []float64{0.5})
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*each {
		t.Fatalf("count = %d, want %d", got, goroutines*each)
	}
	if got := h.Sum(); math.Abs(got-0.25*goroutines*each) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, 0.25*goroutines*each)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF(exp, want) {
		t.Fatalf("ExpBuckets = %v, want %v", exp, want)
	}
	lin := LinearBuckets(0, 0.5, 3)
	if want := []float64{0, 0.5, 1}; !equalF(lin, want) {
		t.Fatalf("LinearBuckets = %v, want %v", lin, want)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Counter("a_total", "").Add(1)
	r.Gauge("g", "").Set(-3)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
	var s Snapshot
	if err := json.Unmarshal(j1, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["a_total"] != 1 || s.Counters["b_total"] != 2 || s.Gauges["g"] != -3 {
		t.Fatalf("roundtrip snapshot mismatch: %+v", s)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "total requests").Add(3)
	r.Gauge("depth", "queue depth").Set(2)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 3",
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Metric families appear in name order for a stable page.
	if strings.Index(out, "depth") > strings.Index(out, "lat_seconds") ||
		strings.Index(out, "lat_seconds") > strings.Index(out, "requests_total") {
		t.Fatalf("prom output not name-sorted:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "x_total 1") {
		t.Fatalf("handler output missing sample:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("y_total", "").Inc()
	r.PublishExpvar("metrics_test_registry")
	r.PublishExpvar("metrics_test_registry") // second call must not panic
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	fg := r.FloatGauge("test_lag_seconds", "replication lag")
	if v := fg.Value(); v != 0 {
		t.Fatalf("zero value = %g", v)
	}
	fg.Set(0.25)
	if v := fg.Value(); v != 0.25 {
		t.Fatalf("Value = %g, want 0.25", v)
	}
	if again := r.FloatGauge("test_lag_seconds", ""); again != fg {
		t.Fatal("re-registration returned a different gauge")
	}
	snap := r.Snapshot()
	if snap.FloatGauges["test_lag_seconds"] != 0.25 {
		t.Fatalf("snapshot float gauges = %v", snap.FloatGauges)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE test_lag_seconds gauge\n") ||
		!strings.Contains(out, "test_lag_seconds 0.25\n") {
		t.Fatalf("prometheus exposition missing float gauge:\n%s", out)
	}
}

func TestSnapshotOmitsEmptyFloatGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Inc()
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "float_gauges") {
		t.Fatalf("empty float gauge map must be omitted: %s", b)
	}
}
