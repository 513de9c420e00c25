package cartel

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestNewNetworkDeterministic(t *testing.T) {
	a, err := NewNetwork(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Segments {
		if a.Segments[i].Delay != b.Segments[i].Delay {
			t.Fatal("same seed produced different networks")
		}
	}
	c, _ := NewNetwork(50, 8)
	same := true
	for i := range a.Segments {
		if a.Segments[i].Delay != c.Segments[i].Delay {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical networks")
	}
	if _, err := NewNetwork(0, 1); err == nil {
		t.Error("0 segments: want error")
	}
}

func TestSegmentProperties(t *testing.T) {
	n, err := NewNetwork(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range n.Segments {
		if s.Length < 100 || s.Length > 1000 {
			t.Errorf("segment %d length %g out of range", s.ID, s.Length)
		}
		if s.Delay.Mean() <= 0 {
			t.Errorf("segment %d non-positive mean delay", s.ID)
		}
		if s.Rate <= 0 {
			t.Errorf("segment %d non-positive rate", s.ID)
		}
	}
	if _, err := n.Segment(0); err == nil {
		t.Error("segment 0: want error")
	}
	if _, err := n.Segment(101); err == nil {
		t.Error("segment 101: want error")
	}
}

func TestObserveWindowAndGrouping(t *testing.T) {
	n, _ := NewNetwork(30, 11)
	obs, err := n.ObserveWindow(5000, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 5000 {
		t.Fatalf("len = %d", len(obs))
	}
	groups := GroupBySegment(obs)
	total := 0
	for id, s := range groups {
		if id < 1 || id > 30 {
			t.Fatalf("observation for unknown segment %d", id)
		}
		total += s.Size()
	}
	if total != 5000 {
		t.Errorf("grouped %d observations, want 5000", total)
	}
	// Rates vary; the busiest segment should see far more reports than
	// the quietest (Example 1's 3-vs-50 asymmetry).
	min, max := 1<<30, 0
	for _, s := range groups {
		if s.Size() < min {
			min = s.Size()
		}
		if s.Size() > max {
			max = s.Size()
		}
	}
	if max < 3*min {
		t.Errorf("observation counts too uniform: min %d, max %d", min, max)
	}
	for _, o := range obs[:10] {
		if o.TimeSec < 0 || o.TimeSec >= 120 {
			t.Errorf("TimeSec %d outside window", o.TimeSec)
		}
	}
	if _, err := n.ObserveWindow(-1, 60); err == nil {
		t.Error("negative total: want error")
	}
}

func TestRoutes(t *testing.T) {
	n, _ := NewNetwork(50, 13)
	r, err := n.RandomRoute(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SegmentIDs) != 20 {
		t.Fatalf("route length %d", len(r.SegmentIDs))
	}
	seen := map[int]bool{}
	for _, id := range r.SegmentIDs {
		if seen[id] {
			t.Fatalf("duplicate segment %d in route", id)
		}
		seen[id] = true
	}
	mean, err := n.TrueMeanDelay(r)
	if err != nil || mean <= 0 {
		t.Fatalf("TrueMeanDelay = %g, %v", mean, err)
	}
	variance := 0.0 // segments are independent
	for _, id := range r.SegmentIDs {
		seg, _ := n.Segment(id)
		variance += seg.Delay.Variance()
	}
	// Route observations center on the true mean.
	obs, err := n.ObserveRoute(r, 20000)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range obs {
		sum += x
	}
	got := sum / float64(len(obs))
	if math.Abs(got-mean) > 6*math.Sqrt(variance/float64(len(obs))) {
		t.Errorf("observed route mean %g, true %g", got, mean)
	}
	if _, err := n.RandomRoute(0); err == nil {
		t.Error("empty route: want error")
	}
	if _, err := n.RandomRoute(51); err == nil {
		t.Error("oversized route: want error")
	}
	if _, err := n.ObserveRoute(r, -1); err == nil {
		t.Error("negative count: want error")
	}
}

func TestClosePairs(t *testing.T) {
	n, _ := NewNetwork(200, 17)
	pairs, err := n.ClosePairs(20, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for i, p := range pairs {
		if p.FirstMean > p.SecondMean {
			t.Errorf("pair %d not ordered: %g > %g", i, p.FirstMean, p.SecondMean)
		}
		gap := (p.SecondMean - p.FirstMean) / p.FirstMean
		if gap > 0.05 {
			t.Errorf("pair %d gap %g exceeds 0.05", i, gap)
		}
	}
	if _, err := n.ClosePairs(0, 10, 0.05); err == nil {
		t.Error("0 pairs: want error")
	}
	if _, err := n.ClosePairs(5, 10, 0); err == nil {
		t.Error("zero gap: want error")
	}
	// Impossible demand errors rather than spinning forever.
	tiny, _ := NewNetwork(2, 1)
	if _, err := tiny.ClosePairs(50, 2, 1e-12); err == nil {
		t.Error("unsatisfiable pairs: want error")
	}
}

func TestTrueBinHeights(t *testing.T) {
	nd, _ := dist.NewNormal(0, 1)
	heights, err := TrueBinHeights(nd, []float64{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "bin1", heights[0], 0.3413, 0.0001)
	approx(t, "bin2", heights[1], 0.3413, 0.0001)
	if _, err := TrueBinHeights(nd, []float64{0}); err == nil {
		t.Error("single edge: want error")
	}
}
