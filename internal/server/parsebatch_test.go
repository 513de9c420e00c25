package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
)

// refParseRows is the ingest payload parse the reused batch replaces,
// kept as its reference: strings.Fields, then ParseFieldSpec per token,
// one freshly allocated slice per row.
func refParseRows(rest string, batch bool) (string, [][]randvar.Field, error) {
	usage := "usage: INSERT <stream> <field> ..."
	if batch {
		usage = "usage: INSERTBATCH <stream> <field> ... [| <field> ...]"
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", nil, errors.New(usage)
	}
	var rows [][]randvar.Field
	var cur []randvar.Field
	for _, tok := range fields[1:] {
		if batch && tok == "|" {
			if len(cur) == 0 {
				return "", nil, errors.New("empty tuple in batch")
			}
			rows, cur = append(rows, cur), nil
			continue
		}
		f, err := ParseFieldSpec(tok)
		if err != nil {
			return "", nil, err
		}
		cur = append(cur, f)
	}
	if len(cur) == 0 {
		return "", nil, errors.New("empty tuple in batch")
	}
	return fields[0], append(rows, cur), nil
}

// batchSpaces are the separators the generated payloads use: ASCII spaces
// and tabs and the non-ASCII spaces strings.Fields also splits on.
var batchSpaces = []string{" ", " ", " ", "\t", "  ", "\v", "\u00a0", "\u0085", "\u2003", "\u3000", " \u2028\t"}

// badSpecs are field tokens ParseFieldSpec refuses.
var badSpecs = []string{"N(1,2)", "N(1,2,3,4)", "S(1)", "S(1;x)", "H(0,1|)", "H(0,1,2)", "abc", "NaN", "1e999", "\xff", "J{bad", "N(1,-2,3)"}

// randSpec returns one field token of every kind the protocol has.
func randSpec(r *rand.Rand) string {
	num := func() string {
		return strconv.FormatFloat((r.Float64()-0.5)*math.Pow10(r.Intn(9)-4), 'g', -1, 64)
	}
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf("N(%s,%g,%d)", num(), 0.1+r.Float64()*50, r.Intn(60))
	case 1:
		obs := make([]string, 2+r.Intn(12))
		for i := range obs {
			obs[i] = num()
		}
		if r.Intn(4) == 0 {
			obs = append(obs, "") // S() skips empty observations
		}
		return "S(" + strings.Join(obs, ";") + ")"
	case 2:
		k := 1 + r.Intn(6)
		edges, counts := make([]string, k+1), make([]string, k)
		lo := r.Float64() * 100
		for i := range edges {
			edges[i] = strconv.FormatFloat(lo+float64(i)*2.5, 'g', -1, 64)
		}
		for i := range counts {
			counts[i] = strconv.Itoa(1 + r.Intn(20))
		}
		return "H(" + strings.Join(edges, ",") + "|" + strings.Join(counts, ",") + ")"
	case 3:
		return FormatFieldSpec(randvar.Field{Dist: dist.Exponential{Lambda: 0.5 + r.Float64()}, N: r.Intn(40)})
	default:
		return num()
	}
}

// genBatch returns one seeded INSERTBATCH payload of 1–130 rows; about one
// in eight is malformed.
func genBatch(r *rand.Rand) string {
	sp := func() string { return batchSpaces[r.Intn(len(batchSpaces))] }
	var toks []string
	rows := 1 + r.Intn(130)
	for i := 0; i < rows; i++ {
		if i > 0 {
			toks = append(toks, "|")
		}
		for k := 1 + r.Intn(4); k > 0; k-- {
			toks = append(toks, randSpec(r))
		}
	}
	if r.Intn(8) == 0 {
		switch at := r.Intn(len(toks)); r.Intn(4) {
		case 0:
			toks[at] = badSpecs[r.Intn(len(badSpecs))]
		case 1:
			toks = append(toks[:at], append([]string{"|"}, toks[at:]...)...) // may empty a tuple
		case 2:
			toks = append(toks, "|")
		default:
			toks = nil
		}
	}
	var b strings.Builder
	b.WriteString(sp())
	b.WriteString("s")
	for _, tok := range toks {
		b.WriteString(sp())
		b.WriteString(tok)
	}
	b.WriteString(sp())
	return b.String()
}

// TestInsertBatchReuse parses over 10⁴ seeded tuples of INSERTBATCH lines
// through one reused insertBatch, keeping each row's fields as IngestBatch
// keeps them (a copy of the Field values, sharing every Dist), and only
// after the last line compares every kept field with ParseFieldSpec of its
// token. A distribution that shared storage with the batch's slabs would
// by then hold a later line's values. Malformed lines must fail with the
// reference's error.
func TestInsertBatchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var (
		b       insertBatch
		payload []string
		kept    [][][]randvar.Field
		errs    []error
		tuples  int
		bad     int
	)
	for tuples < 10_000 {
		p := genBatch(r)
		name, err := b.parse(p, true)
		var rows [][]randvar.Field
		for _, row := range b.rows {
			if cap(row.Fields) != len(row.Fields) {
				t.Fatalf("row fields have spare capacity %d > %d: an append would write into the next row", cap(row.Fields), len(row.Fields))
			}
			rows = append(rows, append([]randvar.Field(nil), row.Fields...))
		}
		if err == nil && name != "s" {
			t.Fatalf("stream name %q, want s", name)
		}
		if err != nil {
			bad++
			rows = nil
		}
		tuples += len(rows)
		payload, kept, errs = append(payload, p), append(kept, rows), append(errs, err)
		b.release()
	}
	if bad == 0 {
		t.Fatal("no malformed line generated")
	}
	for i, p := range payload {
		_, want, wantErr := refParseRows(p, true)
		if (errs[i] == nil) != (wantErr == nil) || (wantErr != nil && errs[i].Error() != wantErr.Error()) {
			t.Fatalf("line %d %q: error %v, want %v", i, p, errs[i], wantErr)
		}
		if !reflect.DeepEqual(kept[i], want) {
			t.Fatalf("line %d %q: rows differ from ParseFieldSpec of each token:\n got %v\nwant %v", i, p, kept[i], want)
		}
	}
	// A single INSERT treats "|" as a field, which does not parse.
	for _, p := range []string{"s 1 | 2", "s", "", "s\u00a0\t", "s 1 N(1,2,3)"} {
		_, err := b.parse(p, false)
		_, _, wantErr := refParseRows(p, false)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("INSERT %q: error %v, want %v", p, err, wantErr)
		}
	}
}

// TestCutFieldMatchesFields splits strings of every Unicode space, control
// bytes and invalid UTF-8 with cutField and with strings.Fields.
func TestCutFieldMatchesFields(t *testing.T) {
	var spaces []rune
	for c := rune(0); c <= unicode.MaxRune; c++ {
		if unicode.IsSpace(c) {
			spaces = append(spaces, c)
		}
	}
	pieces := []string{"a", "N(1,2,3)", "|", "\xff", "\xe2\x80", "é", "\x00", "\u200b", "\ufeff"}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for k := r.Intn(8); k > 0; k-- {
			if r.Intn(2) == 0 {
				b.WriteRune(spaces[r.Intn(len(spaces))])
			} else {
				b.WriteString(pieces[r.Intn(len(pieces))])
			}
		}
		s := b.String()
		var got []string
		for tok, rest := cutField(s); tok != ""; tok, rest = cutField(rest) {
			got = append(got, tok)
		}
		if want := strings.Fields(s); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%q: cutField splits %q, strings.Fields %q", s, got, want)
		}
	}
}

// wireSmallBatch returns a 32-row INSERTBATCH payload shaped like the
// wire-small workload's: half raw samples of ten observations, half
// pre-learned Gaussians.
func wireSmallBatch() string {
	var b strings.Builder
	b.WriteString("s")
	for i := 0; i < 32; i++ {
		if i > 0 {
			b.WriteString(" |")
		}
		if i%2 == 0 {
			fmt.Fprintf(&b, " %d N(%d.25,%d.5,%d)", i, 60+i%7, 20+i%5, 3+i%40)
			continue
		}
		fmt.Fprintf(&b, " %d S(", i)
		for k := 0; k < 10; k++ {
			if k > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%d.%03d", 55+(i*k)%11, (i*31+k*17)%1000)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// maxBatchAllocs pins the allocations of one 32-row INSERTBATCH served
// through ServeConn with a DATA line per row: the engine's per-result
// tuple, fields and accuracy, the batch's tuple slab, and nothing per
// parsed row beyond what a distribution keeps. The serving path makes
// about 270; under -race, where sync.Pool drops items at random, about
// 330. Three allocations per row more, one slice per parsed row and two
// per built tuple, made about 450.
const maxBatchAllocs = 360

// TestInsertBatchAllocs serves a 32-row INSERTBATCH over a full window
// through ServeConn and counts the allocations of one request and reply.
func TestInsertBatchAllocs(t *testing.T) {
	s := newTestServer(t, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
	defer s.Close()
	p1, p2 := net.Pipe()
	s.ServeConn(p1)
	defer p2.Close()
	rd := bufio.NewReaderSize(p2, 64<<10)
	line := "INSERTBATCH " + wireSmallBatch() + "\n"
	request := func() {
		if _, err := p2.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		for {
			l, err := rd.ReadSlice('\n')
			if err != nil {
				t.Fatal(err)
			}
			if l[0] == 'O' || l[0] == 'E' {
				if !strings.HasPrefix(string(l), "OK inserted tuples=32 results=") {
					t.Fatalf("reply %q", l)
				}
				return
			}
		}
	}
	for _, cmd := range []string{"STREAM s key v:dist", "QUERY q SELECT AVG(v) AS a FROM s WINDOW 64 ROWS"} {
		if _, err := fmt.Fprintln(p2, cmd); err != nil {
			t.Fatal(err)
		}
		if l, err := rd.ReadString('\n'); err != nil || !strings.HasPrefix(l, "OK") {
			t.Fatalf("%s: %q %v", cmd, l, err)
		}
	}
	for i := 0; i < 4; i++ { // fill the window, warm the scratch and pools
		request()
	}
	allocs := testing.AllocsPerRun(50, request)
	t.Logf("%.0f allocations per 32-row INSERTBATCH", allocs)
	if allocs > maxBatchAllocs {
		t.Errorf("a 32-row INSERTBATCH allocates %.0f times, want at most %d", allocs, maxBatchAllocs)
	}
}

// BenchmarkParseInsertBatch parses one wire-small-shaped 32-row
// INSERTBATCH payload per op into a reused batch.
func BenchmarkParseInsertBatch(b *testing.B) {
	payload := wireSmallBatch()
	var batch insertBatch
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := batch.parse(payload, true); err != nil {
			b.Fatal(err)
		}
		batch.release()
	}
}
