package stream

import (
	"errors"
	"fmt"
	"strings"
)

// Column describes one attribute of a stream. Probabilistic columns hold
// distributions; deterministic columns hold exact values (represented as
// point distributions, §II-A: "a single value with probability 1").
type Column struct {
	Name          string
	Probabilistic bool
}

// Schema is an ordered set of named columns.
type Schema struct {
	Name    string
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema, validating non-empty distinct column names.
func NewSchema(name string, cols ...Column) (*Schema, error) {
	if name == "" {
		return nil, errors.New("stream: schema needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("stream: schema %q needs at least one column", name)
	}
	s := &Schema{Name: name, Columns: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("stream: schema %q column %d has empty name", name, i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("stream: schema %q has duplicate column %q", name, c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// Index returns the position of the named column (case-insensitive).
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		if c.Probabilistic {
			b.WriteString(" DIST")
		}
	}
	b.WriteByte(')')
	return b.String()
}
