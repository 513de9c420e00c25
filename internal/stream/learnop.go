package stream

import (
	"errors"
	"fmt"

	"repro/internal/learn"
	"repro/internal/randvar"
)

// LearnOp is the streaming version of the paper's learning step (§I,
// Figure 1): raw observation tuples (key, value) arrive one at a time; the
// operator keeps a sliding buffer of recent raw values per key and, for
// each arrival, re-learns that key's distribution and emits a learned
// tuple (key, distribution) whose field carries the buffer's sample size.
//
// This is how "the stream database system transforms the three (fifty,
// respectively) raw records of road 19 (20) into a single record with a
// distribution in the Delay field" — continuously.
//
// With HalfLife > 0 the learner weights observations by recency
// (exponential decay over the tuple Time axis, the paper's §VII future
// work) and the emitted sample size is the Kish effective size.
type LearnOp struct {
	// KeyCol and ValueCol name the raw stream's columns.
	KeyCol, ValueCol string
	// BufferSize is the per-key raw window (count-based).
	BufferSize int
	// MinSamples defers emission until a key has at least this many raw
	// observations (default 2).
	MinSamples int
	// Learner fits the distribution (default Gaussian MLE). Ignored when
	// HalfLife > 0 (weighted Gaussian learning is used).
	Learner learn.Learner
	// HalfLife enables recency weighting: an observation's weight halves
	// every HalfLife units of tuple Time. 0 disables weighting.
	HalfLife float64

	keyIdx, valIdx int
	out            *Schema
	buffers        map[float64]*rawBuffer
}

// rawBuffer is one key's sliding raw window.
type rawBuffer struct {
	values []float64
	times  []int64
	head   int
	count  int
}

func newRawBuffer(size int) *rawBuffer {
	return &rawBuffer{values: make([]float64, size), times: make([]int64, size)}
}

func (b *rawBuffer) push(v float64, ts int64) {
	if b.count < len(b.values) {
		idx := (b.head + b.count) % len(b.values)
		b.values[idx] = v
		b.times[idx] = ts
		b.count++
		return
	}
	b.values[b.head] = v
	b.times[b.head] = ts
	b.head = (b.head + 1) % len(b.values)
}

// snapshot returns the buffered values and times oldest-first.
func (b *rawBuffer) snapshot() (vals []float64, times []int64) {
	vals = make([]float64, b.count)
	times = make([]int64, b.count)
	for i := 0; i < b.count; i++ {
		idx := (b.head + i) % len(b.values)
		vals[i] = b.values[idx]
		times[i] = b.times[idx]
	}
	return vals, times
}

// NewLearnOp builds a LearnOp over the raw input schema. The output schema
// has the key column and a probabilistic column named after ValueCol.
func NewLearnOp(in *Schema, keyCol, valueCol string, bufferSize int) (*LearnOp, error) {
	keyIdx, ok := in.Index(keyCol)
	if !ok {
		return nil, fmt.Errorf("stream: learn key column %q not in schema %q", keyCol, in.Name)
	}
	valIdx, ok := in.Index(valueCol)
	if !ok {
		return nil, fmt.Errorf("stream: learn value column %q not in schema %q", valueCol, in.Name)
	}
	if in.Columns[keyIdx].Probabilistic {
		return nil, fmt.Errorf("stream: learn key column %q must be deterministic", keyCol)
	}
	if bufferSize < 2 {
		return nil, fmt.Errorf("stream: learn buffer size %d, need ≥ 2", bufferSize)
	}
	out, err := NewSchema(in.Name+"_learned",
		Column{Name: in.Columns[keyIdx].Name},
		Column{Name: in.Columns[valIdx].Name, Probabilistic: true},
	)
	if err != nil {
		return nil, err
	}
	return &LearnOp{
		KeyCol:     keyCol,
		ValueCol:   valueCol,
		BufferSize: bufferSize,
		MinSamples: 2,
		keyIdx:     keyIdx,
		valIdx:     valIdx,
		out:        out,
		buffers:    make(map[float64]*rawBuffer),
	}, nil
}

// Process buffers the raw observation and emits a freshly learned tuple
// for its key once MinSamples observations are available.
func (l *LearnOp) Process(t *Tuple) ([]*Tuple, error) {
	rawVal := t.Fields[l.valIdx]
	if !rawVal.IsDet() {
		return nil, errors.New("stream: learn input values must be deterministic raw observations")
	}
	key := t.Fields[l.keyIdx].Dist.Mean()
	buf, ok := l.buffers[key]
	if !ok {
		buf = newRawBuffer(l.BufferSize)
		l.buffers[key] = buf
	}
	buf.push(rawVal.Dist.Mean(), t.Time)
	min := l.MinSamples
	if min < 2 {
		min = 2
	}
	if buf.count < min {
		return nil, nil
	}
	vals, times := buf.snapshot()
	var field randvar.Field
	if l.HalfLife > 0 {
		now := t.Time
		ages := make([]float64, len(times))
		for i, ts := range times {
			age := float64(now - ts)
			if age < 0 {
				age = 0
			}
			ages[i] = age
		}
		ws, err := learn.ExponentialDecay(vals, ages, l.HalfLife)
		if err != nil {
			return nil, err
		}
		d, neff, err := learn.WeightedGaussianLearner(ws)
		if err != nil {
			return nil, err
		}
		field = randvar.Field{Dist: d, N: neff}
	} else {
		learner := l.Learner
		if learner == nil {
			learner = learn.GaussianLearner{}
		}
		d, err := learner.Learn(learn.NewSample(vals))
		if err != nil {
			return nil, err
		}
		field = randvar.Field{Dist: d, N: len(vals)}
	}
	out := &Tuple{
		Schema: l.out,
		Fields: []randvar.Field{t.Fields[l.keyIdx], field},
		Prob:   1,
		Seq:    t.Seq,
		Time:   t.Time,
	}
	return []*Tuple{out}, nil
}
