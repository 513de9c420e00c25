// Package ingest turns raw-observation CSV files into learned probabilistic
// fields — the batch counterpart of Example 1's pipeline: rows like
// Figure 1's (segment_id, ..., delay) are grouped by a key column, each
// group's value column becomes an iid sample, and a learner fits a
// distribution whose sample size rides along for accuracy tracking.
//
// The CSV must have a header row; columns are referenced by header name
// (case-insensitive). cmd/datagen produces compatible files.
//
// Determinism: the pipeline is a pure function of the CSV bytes and the
// Spec — groups are emitted sorted by key and learners see observations in
// file order, so repeated Reads yield identical tuples in identical order,
// and asdb's LOAD sends the same INSERTBATCH lines for the same file.
package ingest

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/learn"
	"repro/internal/randvar"
)

// Spec describes how to interpret a raw-observation CSV.
type Spec struct {
	// KeyColumn groups rows (e.g. "segment_id"). Required.
	KeyColumn string
	// ValueColumn holds the observation (e.g. "delay_sec"). Required.
	ValueColumn string
	// Learner fits each group's distribution; defaults to Gaussian MLE.
	Learner learn.Learner
	// MinSamples skips groups with fewer observations (default 2 — one
	// observation cannot carry accuracy information).
	MinSamples int
}

func (s Spec) normalize() (Spec, error) {
	if s.KeyColumn == "" || s.ValueColumn == "" {
		return s, errors.New("ingest: KeyColumn and ValueColumn are required")
	}
	if s.Learner == nil {
		s.Learner = learn.GaussianLearner{}
	}
	if s.MinSamples == 0 {
		s.MinSamples = 2
	}
	if s.MinSamples < 1 {
		return s, fmt.Errorf("ingest: MinSamples %d must be ≥ 1", s.MinSamples)
	}
	return s, nil
}

// Group is the raw sample of one key.
type Group struct {
	Key    float64
	Sample *learn.Sample
}

// ReadGroups parses the CSV and groups the value column by key. Groups
// smaller than MinSamples are dropped. The result is sorted by key.
func ReadGroups(r io.Reader, spec Spec) ([]Group, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("ingest: reading header: %w", err)
	}
	keyIdx, valIdx := -1, -1
	for i, h := range header {
		switch {
		case strings.EqualFold(strings.TrimSpace(h), spec.KeyColumn):
			keyIdx = i
		case strings.EqualFold(strings.TrimSpace(h), spec.ValueColumn):
			valIdx = i
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("ingest: key column %q not in header %v", spec.KeyColumn, header)
	}
	if valIdx < 0 {
		return nil, fmt.Errorf("ingest: value column %q not in header %v", spec.ValueColumn, header)
	}
	groups := make(map[float64]*Group)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, err)
		}
		key, err := strconv.ParseFloat(strings.TrimSpace(rec[keyIdx]), 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad key %q", line, rec[keyIdx])
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(rec[valIdx]), 64)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad value %q", line, rec[valIdx])
		}
		g, ok := groups[key]
		if !ok {
			g = &Group{Key: key, Sample: learn.NewSample(nil)}
			groups[key] = g
		}
		g.Sample.Add(val)
	}
	out := make([]Group, 0, len(groups))
	for _, g := range groups {
		if g.Sample.Size() >= spec.MinSamples {
			out = append(out, *g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// LearnedTuple is one (key, learned field) pair ready to insert.
type LearnedTuple struct {
	Key   float64
	Field randvar.Field
}

// LearnGroups fits the spec's learner to every group.
func LearnGroups(groups []Group, spec Spec) ([]LearnedTuple, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	out := make([]LearnedTuple, 0, len(groups))
	for _, g := range groups {
		d, err := spec.Learner.Learn(g.Sample)
		if err != nil {
			return nil, fmt.Errorf("ingest: learning key %g: %w", g.Key, err)
		}
		out = append(out, LearnedTuple{
			Key:   g.Key,
			Field: randvar.Field{Dist: d, N: g.Sample.Size()},
		})
	}
	return out, nil
}

// Read is the one-call pipeline: parse, group, and learn.
func Read(r io.Reader, spec Spec) ([]LearnedTuple, error) {
	groups, err := ReadGroups(r, spec)
	if err != nil {
		return nil, err
	}
	return LearnGroups(groups, spec)
}
