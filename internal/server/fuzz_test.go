package server

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// Native fuzz targets for the protocol surface: the field-spec parser, the
// stream-definition parser, and full command dispatch. All three must never
// panic on arbitrary input, and values that parse must survive a
// format→parse round trip.
//
// Run with: make fuzz   (or go test -fuzz=FuzzParseFieldSpec ./internal/server)

// FuzzParseFieldSpec checks that any input yields a field or an error, and
// that parseable fields round-trip through FormatFieldSpec with identical
// distribution moments and sample size.
func FuzzParseFieldSpec(f *testing.F) {
	seeds := []string{
		"12.5",
		"-3e8",
		"N(10,4,25)",
		"N(-1.5,0.25,3)",
		"S(1;2;3;4)",
		"S(97.5;96;103.2)",
		"H(0,1,2|3,4)",
		"H(-5,0,5,10|1,2,3)",
		`J{"dist":{"kind":"normal","mu":1,"sigma2":2},"n":7}`,
		"N(,,)",
		"H(|)",
		"S()",
		"NaN",
		"Inf",
	}
	seeds = append(seeds, nonFiniteSpecs...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fld, err := ParseFieldSpec(spec)
		if err != nil {
			return
		}
		if fld.Dist == nil {
			t.Fatalf("ParseFieldSpec(%q) returned nil distribution without error", spec)
		}
		rendered := FormatFieldSpec(fld)
		if strings.ContainsAny(rendered, " \n") {
			t.Fatalf("FormatFieldSpec(%q) = %q contains whitespace (breaks the line protocol)", spec, rendered)
		}
		back, err := ParseFieldSpec(rendered)
		if err != nil {
			t.Fatalf("round trip of %q failed: rendered %q: %v", spec, rendered, err)
		}
		if back.N != fld.N {
			t.Fatalf("round trip of %q changed n: %d → %d (via %q)", spec, fld.N, back.N, rendered)
		}
		if m1, m2 := fld.Dist.Mean(), back.Dist.Mean(); !floatEqualOrBothNaN(m1, m2) {
			t.Fatalf("round trip of %q changed mean: %v → %v (via %q)", spec, m1, m2, rendered)
		}
		if v1, v2 := fld.Dist.Variance(), back.Dist.Variance(); !floatEqualOrBothNaN(v1, v2) {
			t.Fatalf("round trip of %q changed variance: %v → %v (via %q)", spec, v1, v2, rendered)
		}
	})
}

func floatEqualOrBothNaN(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// FuzzParseStreamDef checks the STREAM column-definition parser: any
// name/spec input must produce a schema or an error without panicking, and
// accepted schemas must have one column per spec.
func FuzzParseStreamDef(f *testing.F) {
	f.Add("readings", "sensor", "temp:dist")
	f.Add("t", "a:det", "b:prob")
	f.Add("s", "x", "x")
	f.Add("", "col", "col2:dist")
	f.Add("s", "a:bogus", "b")
	f.Add("ストリーム", "温度:dist", "場所")
	f.Fuzz(func(t *testing.T, name, spec1, spec2 string) {
		schema, err := ParseStreamDef(name, []string{spec1, spec2})
		if err != nil {
			return
		}
		if schema.Arity() != 2 {
			t.Fatalf("ParseStreamDef(%q, %q, %q) accepted with arity %d, want 2",
				name, spec1, spec2, schema.Arity())
		}
	})
}

// FuzzProtocolDispatch drives full command lines through a live server's
// dispatcher (writes discarded): no input may panic or corrupt the engine.
// A fixed prelude registers a stream and a query so INSERT/STATS/METRICS
// lines can reach the deeper code paths.
func FuzzProtocolDispatch(f *testing.F) {
	seeds := []string{
		"PING",
		"STREAM s2 a b:dist",
		"QUERY q2 SELECT v FROM readings",
		"INSERT readings 1 N(10,4,25)",
		"INSERT readings 2 S(1;2;3)",
		"STATS q1",
		"METRICS",
		"METRICS q1",
		"EXPLAIN q1",
		"ATTACH q1",
		"CLOSE q1",
		"BOGUS command",
		"INSERT readings",
		"QUERY",
		"STREAM",
		"INSERT readings N(,,) 7",
		"INSERT readings NaN N(10,4,25)",
		"INSERTBATCH readings NaN 1 | Inf 2 | NaN 3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r") {
			return // the transport delivers single lines by construction
		}
		eng, err := core.NewEngine(core.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := &conn{id: 1, c: &recConn{}}
		// Prelude mirrors the seed corpus's assumptions.
		if _, err := s.dispatch(c, "STREAM readings k v:dist"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.dispatch(c, "QUERY q1 SELECT v FROM readings WHERE v > 0"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.dispatch(c, "QUERY g1 SELECT k, AVG(v) FROM readings GROUP BY k WINDOW 2 ROWS"); err != nil {
			t.Fatal(err)
		}
		quit, _ := s.dispatch(c, line)
		if quit && !strings.EqualFold(strings.TrimSpace(line), "QUIT") &&
			!strings.HasPrefix(strings.ToUpper(strings.TrimSpace(line)), "QUIT ") {
			t.Fatalf("dispatch(%q) requested quit", line)
		}
		// The engine must stay usable after arbitrary input.
		if _, err := s.dispatch(c, "INSERT readings 1 N(10,4,25)"); err != nil {
			t.Fatalf("engine unusable after dispatch(%q): %v", line, err)
		}
		// A NaN group key can never be looked up again: a window stored under
		// one is a leak, one per tuple.
		if g1 := eng.Bound("g1"); g1 != nil {
			for _, g := range g1.State().Groups {
				if g.Key != g.Key {
					t.Fatalf("dispatch(%q) left a group window under a NaN key", line)
				}
			}
		}
	})
}
