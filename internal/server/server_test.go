package server

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// startServer spins up a server on a random port and returns a connected
// client; both are torn down with the test.
func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyAnalytical})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	cl, err := Dial(addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return srv, cl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil engine: want error")
	}
}

func TestPing(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndQuery(t *testing.T) {
	_, cl := startServer(t)
	schema, err := stream.NewSchema("traffic",
		stream.Column{Name: "road_id"},
		stream.Column{Name: "delay", Probabilistic: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("q1", "SELECT road_id, delay FROM traffic WHERE delay > 50"); err != nil {
		t.Fatal(err)
	}
	nd, _ := dist.NewNormal(60, 100)
	n, err := cl.Insert("traffic", randvar.Det(19), randvar.Field{Dist: nd, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("insert produced %d results, want 1", n)
	}
	select {
	case d := <-cl.Data():
		if d.QueryID != "q1" {
			t.Fatalf("result for %q", d.QueryID)
		}
		f, ok := d.Result.Fields["delay"]
		if !ok {
			t.Fatalf("fields = %v", d.Result.Fields)
		}
		if math.Abs(f.Mean-60) > 1e-9 || f.N != 20 {
			t.Errorf("delay field = %+v", f)
		}
		if f.MeanIv == nil || f.MeanIv.Level != 0.9 {
			t.Errorf("missing mean interval: %+v", f)
		}
		// P(delay>50) = 0.841; the membership probability shrinks.
		if math.Abs(d.Result.Prob-0.8413) > 0.001 {
			t.Errorf("prob = %v", d.Result.Prob)
		}
		if d.Result.ProbIv == nil {
			t.Error("missing tuple probability interval")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no DATA within 2s")
	}
	// Stats reflect the push.
	st, err := cl.Stats("q1")
	if err != nil {
		t.Fatal(err)
	}
	if st.In != 1 || st.Out != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := cl.CloseQuery("q1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats("q1"); err == nil {
		t.Error("stats after close: want error")
	}
}

func TestInsertFieldKinds(t *testing.T) {
	_, cl := startServer(t)
	schema, _ := stream.NewSchema("s",
		stream.Column{Name: "a", Probabilistic: true},
		stream.Column{Name: "b", Probabilistic: true},
		stream.Column{Name: "c"},
	)
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	// Raw protocol exercise: S() learning and H() histogram.
	if err := cl.Query("q", "SELECT a, b, c FROM s"); err != nil {
		t.Fatal(err)
	}
	h, _ := dist.HistogramFromCounts([]float64{0, 10, 20}, []int{3, 7})
	n, err := cl.Insert("s",
		randvar.Field{Dist: h, N: 10},
		mustParse(t, "S(1;2;3;4;5)"),
		randvar.Det(7),
	)
	if err != nil || n != 1 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	select {
	case d := <-cl.Data():
		a := d.Result.Fields["a"]
		if len(a.Bins) != 2 {
			t.Errorf("histogram bins = %+v", a.Bins)
		}
		b := d.Result.Fields["b"]
		if math.Abs(b.Mean-3) > 1e-9 || b.N != 5 {
			t.Errorf("learned field = %+v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no DATA within 2s")
	}
}

func mustParse(t *testing.T, spec string) randvar.Field {
	t.Helper()
	f, err := ParseFieldSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestServerErrors(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Query("bad id", "SELECT x FROM s"); err == nil {
		t.Error("whitespace id: want client-side error")
	}
	if err := cl.Query("q", "SELECT x FROM nosuch"); err == nil {
		t.Error("unknown stream: want error")
	}
	if _, err := cl.Insert("nosuch", randvar.Det(1)); err == nil {
		t.Error("insert into unknown stream: want error")
	}
	if _, err := cl.Stats("nosuch"); err == nil {
		t.Error("stats of unknown query: want error")
	}
	if err := cl.CloseQuery("nosuch"); err == nil {
		t.Error("close of unknown query: want error")
	}
	// Duplicate query ids are rejected.
	schema, _ := stream.NewSchema("s", stream.Column{Name: "x", Probabilistic: true})
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("dup", "SELECT x FROM s"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("dup", "SELECT x FROM s"); err == nil {
		t.Error("duplicate id: want error")
	}
	// Duplicate stream registration is rejected.
	if err := cl.RegisterStream(schema); err == nil {
		t.Error("duplicate stream: want error")
	}
}

func TestParseFieldSpec(t *testing.T) {
	f := mustParse(t, "12.5")
	if !f.IsDet() || f.Dist.Mean() != 12.5 {
		t.Errorf("det field = %+v", f)
	}
	f = mustParse(t, "N(60,100,20)")
	nd, ok := f.Dist.(dist.Normal)
	if !ok || nd.Mu != 60 || nd.Sigma2 != 100 || f.N != 20 {
		t.Errorf("normal field = %+v", f)
	}
	f = mustParse(t, "H(0,10,20|3,7)")
	h, ok := f.Dist.(*dist.Histogram)
	if !ok || h.NumBuckets() != 2 || f.N != 10 {
		t.Errorf("hist field = %+v", f)
	}
	bad := []string{"x", "N(1,2)", "N(a,b,c)", "S(1)", "S(a;b)", "H(0,1)", "H(0,1|x)", "N(1,-2,5)"}
	for _, spec := range bad {
		if _, err := ParseFieldSpec(spec); err == nil {
			t.Errorf("ParseFieldSpec(%q): want error", spec)
		}
	}
}

// nonFiniteSpecs are fields strconv.ParseFloat would read as holding an
// infinity or NaN, in every arm of the field syntax.
var nonFiniteSpecs = []string{
	"Inf", "-inf", "NaN", "+Infinity",
	"N(Inf,1,5)", "N(1,Inf,5)", "N(nan,1,5)",
	"S(1;inf)", "S(NaN;2;3)",
	"H(-inf,0,1|1,1)", "H(0,1,+Inf|2,3)",
}

func TestParseFieldSpecNonFinite(t *testing.T) {
	for _, spec := range nonFiniteSpecs {
		_, err := ParseFieldSpec(spec)
		if err == nil || !strings.Contains(err.Error(), "non-finite number") {
			t.Errorf("ParseFieldSpec(%q) = %v, want the non-finite number error", spec, err)
		}
	}
}

func TestFormatFieldSpecRoundTrip(t *testing.T) {
	nd, _ := dist.NewNormal(60, 100)
	h, _ := dist.HistogramFromCounts([]float64{0, 10, 20}, []int{3, 7})
	cases := []randvar.Field{
		randvar.Det(3.5),
		{Dist: nd, N: 20},
		{Dist: h, N: 10},
	}
	for _, f := range cases {
		spec := FormatFieldSpec(f)
		back, err := ParseFieldSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if math.Abs(back.Dist.Mean()-f.Dist.Mean()) > 1e-9 {
			t.Errorf("round trip %q: mean %g vs %g", spec, back.Dist.Mean(), f.Dist.Mean())
		}
		if back.N != f.N {
			t.Errorf("round trip %q: n %d vs %d", spec, back.N, f.N)
		}
	}
	// Other distribution kinds travel losslessly as codec JSON.
	exp, _ := dist.NewExponential(1)
	spec := FormatFieldSpec(randvar.Field{Dist: exp, N: 5})
	if !strings.HasPrefix(spec, "J{") {
		t.Fatalf("codec spec = %q", spec)
	}
	if strings.ContainsAny(spec, " \n") {
		t.Fatalf("codec spec must be a single token: %q", spec)
	}
	back, err := ParseFieldSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Dist.(dist.Exponential); !ok || back.N != 5 {
		t.Errorf("lossless round trip failed: %+v", back)
	}
}

func TestParseStreamDef(t *testing.T) {
	s, err := ParseStreamDef("t", []string{"id", "delay:dist", "speed:prob", "len:det"})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false}
	for i, w := range want {
		if s.Columns[i].Probabilistic != w {
			t.Errorf("column %d probabilistic = %v, want %v", i, s.Columns[i].Probabilistic, w)
		}
	}
	if _, err := ParseStreamDef("t", []string{"x:banana"}); err == nil {
		t.Error("unknown kind: want error")
	}
	if _, err := ParseStreamDef("t", nil); err == nil {
		t.Error("no columns: want error")
	}
}

func TestWindowQueryOverProtocol(t *testing.T) {
	_, cl := startServer(t)
	schema, _ := stream.NewSchema("sensor", stream.Column{Name: "val", Probabilistic: true})
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("agg", "SELECT AVG(val) FROM sensor WINDOW 3 ROWS"); err != nil {
		t.Fatal(err)
	}
	nd, _ := dist.NewNormal(50, 9)
	total := 0
	for i := 0; i < 5; i++ {
		n, err := cl.Insert("sensor", randvar.Field{Dist: nd, N: 20})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 3 {
		t.Fatalf("window emitted %d results, want 3", total)
	}
	for i := 0; i < 3; i++ {
		select {
		case d := <-cl.Data():
			f := d.Result.Fields["avg_val"]
			if math.Abs(f.Mean-50) > 1e-6 {
				t.Errorf("AVG mean = %v", f.Mean)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("missing window result")
		}
	}
}

// TestProtocolGarbage: malformed protocol lines yield ERR responses, never
// crashes or hangs.
func TestProtocolGarbage(t *testing.T) {
	_, cl := startServer(t)
	garbage := []string{
		"FROB x y z",
		"STREAM",
		"STREAM onlyname",
		"QUERY",
		"QUERY justid",
		"INSERT",
		"INSERT s",
		"STATS",
		"CLOSE",
		"STREAM s x:banana",
		"INSERT nosuch N(",
	}
	for _, g := range garbage {
		if _, err := cl.roundTrip(g); err == nil {
			t.Errorf("%q: want ERR", g)
		}
	}
	// The connection still works afterwards.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after garbage: %v", err)
	}
}

// TestAbruptDisconnectCleansQueries: a dropped connection removes its
// queries so later inserts don't write to a dead socket.
func TestAbruptDisconnectCleansQueries(t *testing.T) {
	srv, cl := startServer(t)
	schema, _ := stream.NewSchema("s", stream.Column{Name: "x", Probabilistic: true})
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("q", "SELECT x FROM s"); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// Wait for the server to observe the close and clean up.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		n := len(srv.queries)
		srv.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("queries not cleaned up after disconnect")
}

// TestConcurrentClients: several clients registering and inserting at once
// exercise the locking paths under the race detector.
func TestConcurrentClients(t *testing.T) {
	srv, cl := startServer(t)
	_ = srv
	schema, _ := stream.NewSchema("cc", stream.Column{Name: "x", Probabilistic: true})
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("agg", "SELECT AVG(x) FROM cc WINDOW 5 ROWS"); err != nil {
		t.Fatal(err)
	}
	addr := cl.Addr()
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			wc, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			nd, _ := dist.NewNormal(float64(50+seed), 25)
			for i := 0; i < 25; i++ {
				if _, err := wc.Insert("cc", randvar.Field{Dist: nd, N: 20}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats("agg")
	if err != nil {
		t.Fatal(err)
	}
	if st.In != 100 {
		t.Errorf("stats.In = %d, want 100", st.In)
	}
	// 100 inserts into a 5-row window → 96 aggregate results delivered to
	// this connection.
	if st.Out != 96 {
		t.Errorf("stats.Out = %d, want 96", st.Out)
	}
}

// TestJoinOverProtocol: a join query receives inserts from both streams.
func TestJoinOverProtocol(t *testing.T) {
	_, cl := startServer(t)
	roads, _ := stream.NewSchema("roads",
		stream.Column{Name: "rid"}, stream.Column{Name: "delay", Probabilistic: true})
	weather, _ := stream.NewSchema("weather",
		stream.Column{Name: "rid"}, stream.Column{Name: "rain", Probabilistic: true})
	if err := cl.RegisterStream(roads); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterStream(weather); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("j", "SELECT roads.delay, weather.rain FROM roads JOIN weather ON rid = rid"); err != nil {
		t.Fatal(err)
	}
	nd, _ := dist.NewNormal(60, 100)
	if n, err := cl.Insert("roads", randvar.Det(5), randvar.Field{Dist: nd, N: 20}); err != nil || n != 0 {
		t.Fatalf("left insert: %d, %v", n, err)
	}
	rain, _ := dist.NewNormal(2, 1)
	n, err := cl.Insert("weather", randvar.Det(5), randvar.Field{Dist: rain, N: 15})
	if err != nil || n != 1 {
		t.Fatalf("right insert should join: %d, %v", n, err)
	}
	select {
	case d := <-cl.Data():
		if d.QueryID != "j" {
			t.Fatalf("data for %q", d.QueryID)
		}
		if _, ok := d.Result.Fields["roads.delay"]; !ok {
			t.Errorf("fields = %v", d.Result.Fields)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no join DATA within 2s")
	}
}

// TestExplainOverProtocol round-trips a compiled plan.
func TestExplainOverProtocol(t *testing.T) {
	_, cl := startServer(t)
	schema, _ := stream.NewSchema("s", stream.Column{Name: "x", Probabilistic: true})
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("q", "SELECT AVG(x) FROM s WINDOW 7 ROWS"); err != nil {
		t.Fatal(err)
	}
	plan, err := cl.Explain("q")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "count window of 7 rows") {
		t.Errorf("plan = %q", plan)
	}
	if _, err := cl.Explain("nosuch"); err == nil {
		t.Error("unknown query: want error")
	}
}

// TestJSONFieldSpecAndRepr: J{} specs parse, bad ones error, and DATA
// results carry the lossless repr.
func TestJSONFieldSpecAndRepr(t *testing.T) {
	if _, err := ParseFieldSpec(`J{"dist":{"type":"weibull","a":1,"b":2},"n":7}`); err != nil {
		t.Fatalf("J spec: %v", err)
	}
	if _, err := ParseFieldSpec(`J{broken`); err == nil {
		t.Error("bad J spec: want error")
	}
	_, cl := startServer(t)
	schema, _ := stream.NewSchema("s", stream.Column{Name: "x", Probabilistic: true})
	if err := cl.RegisterStream(schema); err != nil {
		t.Fatal(err)
	}
	if err := cl.Query("q", "SELECT x FROM s"); err != nil {
		t.Fatal(err)
	}
	exp, _ := dist.NewExponential(2)
	if _, err := cl.Insert("s", randvar.Field{Dist: exp, N: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-cl.Data():
		f := d.Result.Fields["x"]
		if len(f.Repr) == 0 {
			t.Fatal("missing repr")
		}
		back, err := codec.DecodeDistribution(f.Repr)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := back.(dist.Exponential); !ok {
			t.Errorf("repr decoded to %T", back)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no DATA within 2s")
	}
}
