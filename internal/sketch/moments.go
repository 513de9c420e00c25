package sketch

import (
	"fmt"
	"math"
)

// Moments is a single-pass, mergeable mean/variance summary: Welford's
// update for Add, Chan et al.'s pairwise combination for Merge. The three
// fields are exported (and JSON-tagged) so the summary serializes losslessly
// through checkpoints and the replication stream.
type Moments struct {
	// N is the number of observations.
	N uint64 `json:"n"`
	// Mean is the running mean.
	Mean float64 `json:"mean,omitempty"`
	// M2 is the sum of squared deviations from the running mean, Σ(x−x̄)².
	M2 float64 `json:"m2,omitempty"`
}

// Add absorbs one observation.
func (m *Moments) Add(x float64) {
	m.N++
	delta := x - m.Mean
	m.Mean += delta / float64(m.N)
	m.M2 += delta * (x - m.Mean)
}

// Merge combines o into m (Chan et al. parallel variance). Merging is
// algebraically exact; float rounding depends only on the merge order,
// which callers keep deterministic (oldest block first).
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.N), float64(o.N)
	delta := o.Mean - m.Mean
	total := n1 + n2
	m.Mean += delta * n2 / total
	m.M2 += o.M2 + delta*delta*n1*n2/total
	m.N += o.N
}

// Sum returns the observation total (Mean·N — exact up to float rounding).
func (m Moments) Sum() float64 { return m.Mean * float64(m.N) }

// Variance returns the population variance M2/N (0 when N == 0).
func (m Moments) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	v := m.M2 / float64(m.N)
	if v < 0 { // float rounding can push M2 a hair below zero
		return 0
	}
	return v
}

// validate rejects non-finite or inconsistent serialized state.
func (m Moments) validate() error {
	if math.IsNaN(m.Mean) || math.IsInf(m.Mean, 0) || math.IsNaN(m.M2) || math.IsInf(m.M2, 0) {
		return fmt.Errorf("sketch: non-finite moment state mean=%v m2=%v", m.Mean, m.M2)
	}
	if m.M2 < 0 {
		return fmt.Errorf("sketch: negative M2 %v", m.M2)
	}
	if m.N == 0 && (m.Mean != 0 || m.M2 != 0) {
		return fmt.Errorf("sketch: empty moments with nonzero statistics")
	}
	return nil
}

// ProbMoments accumulates the one McGregor–Muthukrishnan moment the served
// intervals read for a probabilistic stream: tuple i contributes its field
// mean x̄ᵢ and membership probability pᵢ to Σpᵢ(1−pᵢ)·x̄ᵢ². It merges by
// addition, so the summary is mergeable across blocks, shards, and cluster
// nodes. Checkpoints written while it also kept Σp, Σp(1−p), Σp·x̄ and Σp·v
// still decode: the decoder ignores their keys.
type ProbMoments struct {
	// N is the number of tuples observed (including p = 1 tuples).
	N uint64 `json:"n"`
	// SumP1PX2 is Σpᵢ(1−pᵢ)·x̄ᵢ² — the membership-uncertainty component of
	// the sum estimator's variance.
	SumP1PX2 float64 `json:"sum_p1px2,omitempty"`
}

// Add absorbs one tuple with field mean x and membership probability
// p ∈ [0, 1].
func (pm *ProbMoments) Add(x, p float64) {
	pm.N++
	pm.SumP1PX2 += p * (1 - p) * x * x
}

// Merge combines o into pm by field-wise addition.
func (pm *ProbMoments) Merge(o ProbMoments) {
	pm.N += o.N
	pm.SumP1PX2 += o.SumP1PX2
}

// MembershipHalfWidth returns z(c)·scale·√(Σpᵢ(1−pᵢ)x̄ᵢ²) — the level-c
// half-width of the membership-uncertainty component of a scaled sum of the
// tuples' values (scale = 1 for SUM, 1/m for AVG). Zero when every tuple
// exists with certainty, so certain streams pay no interval widening.
func (pm ProbMoments) MembershipHalfWidth(scale, c float64) (float64, error) {
	z, err := zUpperLevel(c)
	if err != nil {
		return 0, err
	}
	return z * scale * math.Sqrt(pm.SumP1PX2), nil
}

// validate rejects non-finite or inconsistent serialized state.
func (pm ProbMoments) validate() error {
	if math.IsNaN(pm.SumP1PX2) || math.IsInf(pm.SumP1PX2, 0) {
		return fmt.Errorf("sketch: non-finite probabilistic moment state")
	}
	if pm.SumP1PX2 < 0 {
		return fmt.Errorf("sketch: negative probabilistic moment accumulator")
	}
	return nil
}
