package stat

import (
	"math"
	"sync/atomic"
)

// Critical values. Lemma 2's intervals, the significance tests and the
// bootstrap shed path each need a t or χ² quantile at a probability derived
// from a confidence or significance level, and on a stream the same
// (probability, sample size) pair recurs on nearly every tuple: a full count
// window's d.f. sample size is the minimum over the window and rarely moves.
// Each inversion is Newton iteration on an incomplete beta or gamma function,
// microseconds per call, so the functions below answer from one table of
// recent results.
//
// The table is direct-mapped: one row of critSlots slots per kind of value,
// so the mean and variance values of one query never evict each other; each
// slot is an atomic pointer to an immutable entry that carries its full key.
// A lookup hashes the key to one slot of its kind's row and compares the
// entry's key; a miss computes the value with the plain function and
// publishes a fresh entry into that slot, replacing whatever was there.
// Memory is fixed however many distinct pairs arrive, and a burst of them
// cannot lock a hot pair out: its next miss puts it back.
// Readers take no lock: an entry is never written after it is published,
// and the atomic store orders its construction before any load that sees
// it. A hit returns the bits its miss computed, so every result is the one a
// direct call gives. Arguments are checked before the lookup, and an error
// is returned without storing anything. Like a sync.Pool, the table changes
// cost only, never a result, so it is package state with no setting.

// critSlots is the number of slots per kind.
const critSlots = 128

// tFromN is Lemma 2's switch: Student's t below this sample size, the normal
// approximation from it on.
const tFromN = 30

type critKind uint8

const (
	critMean critKind = iota
	critVariance
	critPrediction
	critKinds
)

// critEntry is one published result; its kind is its row. p is compared by
// its bits.
type critEntry struct {
	n int
	p float64
	v [2]float64
}

var critTable [critKinds][critSlots]atomic.Pointer[critEntry]

// critSlot returns the slot of key (kind, p, n): a splitmix64 finalizer over
// the bits of p and n, so that neighbouring sample sizes and levels spread
// over the row.
func critSlot(kind critKind, p float64, n int) *atomic.Pointer[critEntry] {
	h := math.Float64bits(p) ^ uint64(n)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return &critTable[kind][h%critSlots]
}

// critLoad returns the entry in slot if it holds key (p, n), else nil.
func critLoad(slot *atomic.Pointer[critEntry], p float64, n int) *critEntry {
	if e := slot.Load(); e != nil && e.n == n && math.Float64bits(e.p) == math.Float64bits(p) {
		return e
	}
	return nil
}

// MeanCritical returns the multiplier of Lemma 2's mean interval for upper
// tail probability a and sample size n: t_a with n−1 degrees of freedom when
// n < 30, z_a otherwise. The mean interval passes a = (1−c)/2 for level c;
// the significance tests use the same rule as their critical value.
func MeanCritical(a float64, n int) (float64, error) {
	if err := CheckProb(a); err != nil {
		return 0, err
	}
	if n > tFromN {
		n = tFromN // z_a does not depend on n: every large n shares one entry
	}
	slot := critSlot(critMean, a, n)
	if e := critLoad(slot, a, n); e != nil {
		return e.v[0], nil
	}
	var v float64
	if n < tFromN {
		t, err := TUpper(a, float64(n-1))
		if err != nil {
			return 0, err
		}
		v = t
	} else {
		v = ZUpper(a)
	}
	slot.Store(&critEntry{n: n, p: a, v: [2]float64{v}})
	return v, nil
}

// VarianceCritical returns the chi-square pair of Lemma 2's variance
// interval at confidence level c with sample size n: upper = χ²_{(1−c)/2}
// and lower = χ²_{(1+c)/2}, with n−1 degrees of freedom, the values that
// locate (1−c)/2 of the mass to their right and to their left.
func VarianceCritical(c float64, n int) (upper, lower float64, err error) {
	if err := CheckLevel(c); err != nil {
		return 0, 0, err
	}
	slot := critSlot(critVariance, c, n)
	if e := critLoad(slot, c, n); e != nil {
		return e.v[0], e.v[1], nil
	}
	df := float64(n - 1)
	if upper, err = ChiSquareUpper((1-c)/2, df); err != nil {
		return 0, 0, err
	}
	if lower, err = ChiSquareUpper((1+c)/2, df); err != nil {
		return 0, 0, err
	}
	slot.Store(&critEntry{n: n, p: c, v: [2]float64{upper, lower}})
	return upper, lower, nil
}

// PredictionCritical returns t_{(1+c)/2} with r−1 degrees of freedom, the
// multiplier of a level-c prediction interval for a fresh draw from r
// observations.
func PredictionCritical(c float64, r int) (float64, error) {
	if err := CheckLevel(c); err != nil {
		return 0, err
	}
	slot := critSlot(critPrediction, c, r)
	if e := critLoad(slot, c, r); e != nil {
		return e.v[0], nil
	}
	t, err := TQuantile((1+c)/2, float64(r-1))
	if err != nil {
		return 0, err
	}
	slot.Store(&critEntry{n: r, p: c, v: [2]float64{t}})
	return t, nil
}
