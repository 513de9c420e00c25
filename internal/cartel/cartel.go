// Package cartel simulates the CarTel road-delay dataset the paper
// evaluates on (§V-A). The real dataset (vehicular probe measurements of
// traffic delays in greater Boston) is not publicly distributable, so this
// package generates a synthetic equivalent that preserves the properties
// the experiments exercise:
//
//   - per-segment delay distributions are lognormal — the standard
//     heavy-tailed model of travel times — with segment-specific medians
//     derived from length and speed limit plus a congestion factor;
//   - per-segment observation counts vary wildly (few probes on side
//     streets, many on arterials), the paper's motivating accuracy gap
//     (Example 1: 3 observations for road 19, 50 for road 20);
//   - routes are sequences of ~20 segments whose total delay is the
//     quantity queried (§V-C: "queries that ask for the total delays of a
//     number of routes. On average, there are around 20 road segments per
//     route");
//   - pairs of routes with close true mean delays make mdTest comparisons
//     hard at small n (§V-D: "We intentionally choose pairs of routes whose
//     true mean values are close").
//
// Because the generator knows each segment's true distribution, experiment
// code can score confidence-interval misses exactly instead of estimating
// truth from a large held-out sample.
package cartel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/learn"
)

// Segment is one road segment.
type Segment struct {
	ID         int
	Length     float64 // meters
	SpeedLimit float64 // mph, Fig 1 style
	// Delay is the true current-delay distribution (seconds).
	Delay dist.Lognormal
	// Rate weights how often probe vehicles traverse this segment;
	// observation counts in generated batches are proportional to it.
	Rate float64
}

// Network is a generated road network.
type Network struct {
	Segments []Segment
	rng      *dist.Rand
}

// NewNetwork generates numSegments segments deterministically from seed.
func NewNetwork(numSegments int, seed uint64) (*Network, error) {
	if numSegments < 1 {
		return nil, fmt.Errorf("cartel: need ≥ 1 segment, got %d", numSegments)
	}
	rng := dist.NewRand(seed)
	n := &Network{Segments: make([]Segment, numSegments), rng: rng}
	for i := range n.Segments {
		length := 100 + rng.Float64()*900 // 100–1000 m
		speed := []float64{25, 30, 35, 45, 55}[rng.Intn(5)]
		// Free-flow time in seconds (speed in mph ≈ 0.447 m/s per unit).
		freeFlow := length / (speed * 0.447)
		congestion := 1 + rng.ExpFloat64()*0.8 // heavy-tailed congestion
		median := freeFlow * congestion
		sigma2 := 0.1 + rng.Float64()*0.4 // log-variance 0.1–0.5
		ln, err := dist.NewLognormal(math.Log(median), sigma2)
		if err != nil {
			return nil, err
		}
		n.Segments[i] = Segment{
			ID:         i + 1,
			Length:     length,
			SpeedLimit: speed,
			Delay:      ln,
			Rate:       0.1 + rng.ExpFloat64(), // most segments sparse, some busy
		}
	}
	return n, nil
}

// Segment returns the segment with the given ID.
func (n *Network) Segment(id int) (*Segment, error) {
	if id < 1 || id > len(n.Segments) {
		return nil, fmt.Errorf("cartel: no segment %d", id)
	}
	return &n.Segments[id-1], nil
}

// Observation is one raw probe report (Figure 1's row shape).
type Observation struct {
	SegmentID  int
	Length     float64
	TimeSec    int64 // seconds since window start
	Delay      float64
	SpeedLimit float64
}

// ObserveWindow simulates one reporting window: each probe report picks a
// segment with probability proportional to Rate and measures its delay.
// total is the number of reports in the window.
func (n *Network) ObserveWindow(total int, windowSec int64) ([]Observation, error) {
	if total < 0 {
		return nil, fmt.Errorf("cartel: negative report count %d", total)
	}
	sumRate := 0.0
	for i := range n.Segments {
		sumRate += n.Segments[i].Rate
	}
	out := make([]Observation, total)
	for k := 0; k < total; k++ {
		u := n.rng.Float64() * sumRate
		idx := 0
		for ; idx < len(n.Segments)-1; idx++ {
			u -= n.Segments[idx].Rate
			if u < 0 {
				break
			}
		}
		seg := &n.Segments[idx]
		out[k] = Observation{
			SegmentID:  seg.ID,
			Length:     seg.Length,
			TimeSec:    int64(n.rng.Float64() * float64(windowSec)),
			Delay:      seg.Delay.Sample(n.rng),
			SpeedLimit: seg.SpeedLimit,
		}
	}
	return out, nil
}

// GroupBySegment buckets raw observations per segment id — the learning
// system's grouping step before fitting per-segment distributions.
func GroupBySegment(obs []Observation) map[int]*learn.Sample {
	out := make(map[int]*learn.Sample)
	for _, o := range obs {
		s, ok := out[o.SegmentID]
		if !ok {
			s = learn.NewSample(nil)
			out[o.SegmentID] = s
		}
		s.Add(o.Delay)
	}
	return out
}

// Route is a sequence of segment IDs traveled in order.
type Route struct {
	SegmentIDs []int
}

// RandomRoute draws a route of the given number of distinct segments.
func (n *Network) RandomRoute(segments int) (Route, error) {
	if segments < 1 || segments > len(n.Segments) {
		return Route{}, fmt.Errorf("cartel: route of %d segments from %d", segments, len(n.Segments))
	}
	perm := n.rng.Perm(len(n.Segments))[:segments]
	ids := make([]int, segments)
	for i, p := range perm {
		ids[i] = p + 1
	}
	return Route{SegmentIDs: ids}, nil
}

// TrueMeanDelay returns the exact expected total delay of the route.
func (n *Network) TrueMeanDelay(r Route) (float64, error) {
	total := 0.0
	for _, id := range r.SegmentIDs {
		seg, err := n.Segment(id)
		if err != nil {
			return 0, err
		}
		total += seg.Delay.Mean()
	}
	return total, nil
}

// ObserveRoute draws count iid observations of the route's total delay
// (each observation sums one fresh draw per segment — a d.f. observation of
// the route delay in the paper's Definition 2 sense).
func (n *Network) ObserveRoute(r Route, count int) ([]float64, error) {
	if count < 0 {
		return nil, fmt.Errorf("cartel: negative observation count %d", count)
	}
	out := make([]float64, count)
	for k := range out {
		total := 0.0
		for _, id := range r.SegmentIDs {
			seg, err := n.Segment(id)
			if err != nil {
				return nil, err
			}
			total += seg.Delay.Sample(n.rng)
		}
		out[k] = total
	}
	return out, nil
}

// RoutePair is a pair of routes with close true mean delays, the §V-D
// workload: comparing their means at small sample sizes is intentionally
// hard. FirstMean ≤ SecondMean always holds (callers arrange H0/H1 truth by
// choosing the comparison direction).
type RoutePair struct {
	First, Second         Route
	FirstMean, SecondMean float64
}

// ClosePairs generates count route pairs whose true mean delays differ by
// at most maxRelGap (relative to the smaller mean). Pairs are built by
// searching random routes of the given length; an error is returned when
// the network is too small to find enough pairs.
func (n *Network) ClosePairs(count, routeLen int, maxRelGap float64) ([]RoutePair, error) {
	if count < 1 {
		return nil, fmt.Errorf("cartel: need ≥ 1 pair, got %d", count)
	}
	if maxRelGap <= 0 {
		return nil, errors.New("cartel: maxRelGap must be positive")
	}
	var out []RoutePair
	const maxTries = 50000
	type cand struct {
		r    Route
		mean float64
	}
	// pool is kept sorted by mean so each new candidate only needs to
	// inspect its two nearest neighbours.
	var pool []cand
	for tries := 0; len(out) < count && tries < maxTries; tries++ {
		r, err := n.RandomRoute(routeLen)
		if err != nil {
			return nil, err
		}
		m, err := n.TrueMeanDelay(r)
		if err != nil {
			return nil, err
		}
		pos := sort.Search(len(pool), func(i int) bool { return pool[i].mean >= m })
		best := -1
		for _, i := range []int{pos - 1, pos} {
			if i < 0 || i >= len(pool) {
				continue
			}
			c := pool[i]
			lo, hi := math.Min(c.mean, m), math.Max(c.mean, m)
			if lo > 0 && hi != lo && (hi-lo)/lo <= maxRelGap {
				best = i
				break
			}
		}
		if best >= 0 {
			c := pool[best]
			first, second := c.r, r
			fm, sm := c.mean, m
			if fm > sm {
				first, second = second, first
				fm, sm = sm, fm
			}
			out = append(out, RoutePair{First: first, Second: second, FirstMean: fm, SecondMean: sm})
			pool = append(pool[:best], pool[best+1:]...)
			continue
		}
		pool = append(pool, cand{})
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = cand{r: r, mean: m}
	}
	if len(out) < count {
		return nil, fmt.Errorf("cartel: found only %d/%d close pairs; widen maxRelGap or grow the network",
			len(out), count)
	}
	return out, nil
}

// TrueBinHeights returns the exact probability of each histogram bucket
// under the segment's true delay distribution — ground truth for bin-height
// miss-rate experiments (Fig 4c).
func TrueBinHeights(d dist.Distribution, edges []float64) ([]float64, error) {
	if len(edges) < 2 {
		return nil, errors.New("cartel: need at least 2 edges")
	}
	out := make([]float64, len(edges)-1)
	for i := range out {
		out[i] = d.CDF(edges[i+1]) - d.CDF(edges[i])
	}
	return out, nil
}
