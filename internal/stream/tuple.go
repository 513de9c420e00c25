package stream

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/randvar"
)

// Tuple is one element of an uncertain stream (§II-A): an ordered list of
// fields — each, in general, a probability distribution with a retained
// sample size — plus a membership probability Prob (tuple uncertainty) and
// the d.f. sample size ProbN behind that probability, so its accuracy can
// be reported per Theorem 1.
type Tuple struct {
	Schema *Schema
	Fields []randvar.Field
	// Prob is the probability the tuple exists in the stream; 1 for
	// source tuples, possibly < 1 in query results.
	Prob float64
	// ProbN is the d.f. sample size behind Prob; 0 means Prob is exact.
	ProbN int
	// Seq is the tuple's sequence number within its stream.
	Seq uint64
	// Time is the event timestamp (logical or unix nanoseconds; the
	// windows only compare values).
	Time int64
}

// NewTuple builds a tuple over schema with membership probability 1,
// validating the field count and each field.
func NewTuple(schema *Schema, fields []randvar.Field) (*Tuple, error) {
	if err := CheckFields(schema, fields); err != nil {
		return nil, err
	}
	return &Tuple{
		Schema: schema,
		Fields: append([]randvar.Field(nil), fields...),
		Prob:   1,
	}, nil
}

// CheckFields reports what NewTuple would refuse fields over schema for: a
// nil schema, a field count other than the schema's arity, or an invalid
// field. A caller that builds tuples in its own storage checks them here.
func CheckFields(schema *Schema, fields []randvar.Field) error {
	if schema == nil {
		return fmt.Errorf("stream: tuple with nil schema")
	}
	if len(fields) != schema.Arity() {
		return fmt.Errorf("stream: schema %q has %d columns, got %d fields",
			schema.Name, schema.Arity(), len(fields))
	}
	for i, f := range fields {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("stream: field %q: %w", schema.Columns[i].Name, err)
		}
	}
	return nil
}

// Validate checks structural invariants (field arity, probability range).
func (t *Tuple) Validate() error {
	if t.Schema == nil {
		return fmt.Errorf("stream: tuple with nil schema")
	}
	if len(t.Fields) != t.Schema.Arity() {
		return fmt.Errorf("stream: tuple arity %d, schema %q wants %d",
			len(t.Fields), t.Schema.Name, t.Schema.Arity())
	}
	if t.Prob < 0 || t.Prob > 1 || math.IsNaN(t.Prob) {
		return fmt.Errorf("stream: tuple probability %v outside [0,1]", t.Prob)
	}
	if t.ProbN < 0 {
		return fmt.Errorf("stream: tuple ProbN %d negative", t.ProbN)
	}
	for i, f := range t.Fields {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("stream: field %q: %w", t.Schema.Columns[i].Name, err)
		}
	}
	return nil
}

func (t *Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", t.Schema.Name)
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", t.Schema.Columns[i].Name, f.Dist)
		if f.N > 0 {
			fmt.Fprintf(&b, "(n=%d)", f.N)
		}
	}
	if t.Prob != 1 {
		fmt.Fprintf(&b, " | p=%.4g", t.Prob)
		if t.ProbN > 0 {
			fmt.Fprintf(&b, "(n=%d)", t.ProbN)
		}
	}
	b.WriteByte('}')
	return b.String()
}
