package server

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/accuracy"
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

// FuzzDeliveries plans and sends one command's DATA lines for a random
// fleet and checks each connection's bytes against the per-line reference
// renderer (appendDataLine), then that every planned body's reference count
// ended at zero. Each member takes two input bytes: a recipient mask over
// the inserting connection, two outbox connections and two with the outbox
// off (the first recipient is the owner, the rest subscribers), and a
// variant — the group's shared results, one or both; the same tuples with
// their own Unsure or TupleProb; equal tuples behind their own pointers; or
// a shared TupleProb that cannot be rendered.
func FuzzDeliveries(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x1f, 0x00, 0x06, 0x10})
	f.Add([]byte{0x01, 0x00, 0x03, 0x01, 0x0c, 0x02, 0x11, 0x03, 0x00, 0x00})
	f.Add([]byte{0x1f, 0x04, 0x01, 0x04, 0x02, 0x00, 0x1f, 0x15})
	f.Fuzz(func(t *testing.T, spec []byte) {
		if len(spec) > 128 {
			spec = spec[:128]
		}
		base := renderTestResults(t)
		bad := &accuracy.Interval{Lo: 0, Hi: math.Inf(1), Level: 0.9}
		s := &Server{queries: make(map[string]*registeredQuery)}
		var (
			recs  []*recConn
			conns []*conn
		)
		for i := 0; i < 5; i++ {
			rc := &recConn{}
			c := &conn{id: uint64(i + 1), c: rc}
			if i == 1 || i == 2 {
				c.outbox = make(chan dataLine, 256)
			}
			recs, conns = append(recs, rc), append(conns, c)
		}
		from := conns[0]

		var results []core.QueryResults
		want := make([][]byte, len(conns))
		wantEmitted, wantFailed := 0, false
		for m := 0; m+1 < len(spec); m += 2 {
			mask, variant := spec[m], spec[m+1]
			id := fmt.Sprintf("q%03d", m/2)
			rs := []core.Result{base[0], base[1]}
			if variant&0x10 != 0 {
				rs = rs[:1]
			}
			for i := range rs {
				switch variant & 0x0f % 5 {
				case 1:
					rs[i].Unsure = !rs[i].Unsure
				case 2:
					tp := accuracy.Interval{Lo: 0.25, Hi: 0.5, Level: 0.9}
					rs[i].TupleProb = &tp
				case 3:
					clone := *rs[i].Tuple
					rs[i].Tuple = &clone
				case 4:
					rs[i].TupleProb = bad
				}
			}
			results = append(results, core.QueryResults{ID: id, Results: rs})
			rq := &registeredQuery{id: id}
			var to []int
			for k := range conns {
				if mask&(1<<k) == 0 {
					continue
				}
				to = append(to, k)
				if rq.owner == nil {
					rq.owner = conns[k]
				} else {
					rq.subs = append(rq.subs, conns[k])
				}
			}
			s.queries[id] = rq
			for _, r := range rs {
				line, err := appendDataLine(nil, id, r)
				if err != nil {
					wantFailed = true
					continue
				}
				wantEmitted++
				for _, k := range to {
					want[k] = append(append(want[k], line...), '\n')
				}
			}
		}
		want[0] = append(want[0], "OK\n"...)

		emitted, err := s.planDeliveries(&from.scratch, from, results)
		if emitted != wantEmitted || (err != nil) != wantFailed {
			t.Fatalf("planDeliveries: emitted=%d err=%v, want emitted=%d failed=%v", emitted, err, wantEmitted, wantFailed)
		}
		var bodies []*frame
		for _, it := range from.scratch.items {
			if !slices.Contains(bodies, it.body) {
				bodies = append(bodies, it.body)
			}
		}
		if err := s.sendDeliveries(from, &from.scratch, "OK"); err != nil {
			t.Fatal(err)
		}
		for _, c := range conns {
			if len(c.outbox) > 0 {
				c.drainOutbox(<-c.outbox)
			}
		}
		for k, rc := range recs {
			if got := bytes.Join(rc.take(), nil); !bytes.Equal(got, want[k]) {
				t.Errorf("connection %d:\n got %q\nwant %q", k, got, want[k])
			}
		}
		for i, b := range bodies {
			if refs := b.refs.Load(); refs != 0 {
				t.Errorf("body %d: refcount %d after delivery, want 0", i, refs)
			}
		}
	})
}
