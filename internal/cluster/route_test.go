package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/randvar"
	"repro/internal/server"
)

func testNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Primary: fmt.Sprintf("10.0.0.%d:7433", i+1)}
	}
	return nodes
}

// Rendezvous hashing must be deterministic across independent planners,
// spread keys, and move only the departed node's keys on membership
// change.
func TestRendezvousPlacement(t *testing.T) {
	nodes := testNodes(4)
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("stream-%d", i)
		a := rendezvousPick(nodes, key)
		if b := rendezvousPick(nodes, key); a != b {
			t.Fatalf("pick(%q) not deterministic: %d vs %d", key, a, b)
		}
		counts[a]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("node %d received no keys out of 400: %v", i, counts)
		}
	}
	// Removing node 3: keys on nodes 0-2 must not move.
	smaller := nodes[:3]
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("stream-%d", i)
		was := rendezvousPick(nodes, key)
		if was == 3 {
			continue
		}
		if now := rendezvousPick(smaller, key); now != was {
			t.Fatalf("key %q moved from %d to %d when an unrelated node left", key, was, now)
		}
	}
}

// findSplitStreams returns two stream names rendezvous places on
// different nodes (deterministic search).
func findSplitStreams(t *testing.T, tp *topo) (string, string) {
	t.Helper()
	base := "s0"
	n0 := tp.registerStream(base, base+" x y:dist")
	for i := 1; i < 64; i++ {
		name := fmt.Sprintf("s%d", i)
		if n := tp.registerStream(name, name+" x y:dist"); n != n0 {
			return base, name
		}
	}
	t.Fatal("could not find two streams on different nodes")
	return "", ""
}

// Join-aware co-location: clean groups merge onto one node with DDL
// replay moves; a dirty group anchors the merge; two dirty groups on
// different nodes refuse.
func TestJoinColocationRules(t *testing.T) {
	nodes := testNodes(3)
	tp, err := newTopo(nodes)
	if err != nil {
		t.Fatal(err)
	}
	a, b := findSplitStreams(t, tp)
	na, _ := tp.streamNode(a)
	nb, _ := tp.streamNode(b)
	if na == nb {
		t.Fatal("precondition: a and b on different nodes")
	}

	// Clean + clean: merge happens, every moved stream carries its DDL.
	join := fmt.Sprintf("SELECT %s.x FROM %s JOIN %s ON %s.x = %s.x WINDOW 4 ROWS", a, a, b, a, b)
	node, moves, err := tp.placeQuery("j1", join)
	if err != nil {
		t.Fatal(err)
	}
	if node != na && node != nb {
		t.Fatalf("join landed on node %d, expected %d or %d", node, na, nb)
	}
	if len(moves) == 0 {
		t.Fatal("expected at least one re-home move")
	}
	for _, mv := range moves {
		if mv.node != node {
			t.Fatalf("move %v targets node %d, join is on %d", mv, mv.node, node)
		}
		if mv.ddl == "" {
			t.Fatalf("move %v lost its DDL", mv)
		}
	}
	if got, _ := tp.streamNode(a); got != node {
		t.Fatalf("stream %s on node %d after merge, want %d", a, got, node)
	}
	if got, _ := tp.streamNode(b); got != node {
		t.Fatalf("stream %s on node %d after merge, want %d", b, got, node)
	}

	// Dirty group anchors: c is clean, d is dirty → group moves to d's
	// node.
	tp2, _ := newTopo(nodes)
	c, d := findSplitStreams(t, tp2)
	nd, _ := tp2.streamNode(d)
	tp2.markDirty(d)
	join2 := fmt.Sprintf("SELECT %s.x FROM %s JOIN %s ON %s.x = %s.x WINDOW 4 ROWS", c, c, d, c, d)
	node2, _, err := tp2.placeQuery("j2", join2)
	if err != nil {
		t.Fatal(err)
	}
	if node2 != nd {
		t.Fatalf("join with dirty %s placed on %d, want %s's node %d", d, node2, d, nd)
	}

	// Dirty + dirty on different nodes: refuse rather than silently lose
	// data locality.
	tp3, _ := newTopo(nodes)
	e, g := findSplitStreams(t, tp3)
	tp3.markDirty(e)
	tp3.markDirty(g)
	join3 := fmt.Sprintf("SELECT %s.x FROM %s JOIN %s ON %s.x = %s.x WINDOW 4 ROWS", e, e, g, e, g)
	if _, _, err := tp3.placeQuery("j3", join3); err == nil {
		t.Fatal("expected refusal to co-locate two dirty groups on different nodes")
	}

	// Unregistered stream: error, not a guess.
	if _, _, err := tp.placeQuery("j4", "SELECT x FROM nosuch"); err == nil {
		t.Fatal("expected error for unregistered stream")
	}
}

// twoNodeCluster boots two durable primaries, each with one replica, and
// returns the cluster nodes plus the backing tnodes.
func twoNodeCluster(t *testing.T) ([]Node, []*tnode, []*tnode) {
	t.Helper()
	p1 := startPrimary(t, 1, 1<<20, 0)
	p2 := startPrimary(t, 2, 1<<20, 0)
	f1 := startFollower(t, 2, p1.shipAddr)
	f2 := startFollower(t, 1, p2.shipAddr)
	nodes := []Node{
		{Primary: p1.addr, Replicas: []string{f1.addr}},
		{Primary: p2.addr, Replicas: []string{f2.addr}},
	}
	return nodes, []*tnode{p1, p2}, []*tnode{f1, f2}
}

func catchUpAll(t *testing.T, primaries, followers []*tnode) {
	t.Helper()
	for i := range primaries {
		waitCaughtUp(t, primaries[i], followers[i])
	}
}

// A server.Client dialed at the router drives the whole cluster: sharded
// DDL, join co-location with live DDL replay, routed ingest, replica
// reads, and a replica's DATA merged onto the client's Data channel.
func TestRouterClientEndToEnd(t *testing.T) {
	nodes, primaries, followers := twoNodeCluster(t)
	rt, addr := startRouter(t, nodes, server.DialOptions{Retries: 2, RetryBase: 2 * time.Millisecond})
	cl := dialClient(t, addr, server.DialOptions{Seed: 42, Retries: 2, RetryBase: 2 * time.Millisecond})

	// Register streams through the router until the hash has split two of
	// them across the nodes.
	var a, b string
	var na int
	for i := 0; i < 64 && b == ""; i++ {
		name := fmt.Sprintf("t%d", i)
		schema, err := server.ParseStreamDef(name, []string{"seq", "temp:dist"})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.RegisterStream(schema); err != nil {
			t.Fatal(err)
		}
		n, ok := rt.topo.streamNode(name)
		if !ok {
			t.Fatalf("router did not place %s", name)
		}
		switch {
		case a == "":
			a, na = name, n
		case n != na:
			b = name
		}
	}
	if b == "" {
		t.Fatal("hash put 64 streams on one node")
	}

	// Single-stream query on a's node; subscribe via the replica.
	if err := cl.Query("qa", "SELECT temp FROM "+a); err != nil {
		t.Fatal(err)
	}
	// Join across nodes: one clean group re-homes onto the other's node.
	join := fmt.Sprintf("SELECT %s.temp FROM %s JOIN %s ON %s.seq = %s.seq WINDOW 4 ROWS", a, a, b, a, b)
	if err := cl.Query("qj", join); err != nil {
		t.Fatalf("join placement: %v", err)
	}
	naj, _ := rt.topo.streamNode(a)
	nbj, _ := rt.topo.streamNode(b)
	if naj != nbj {
		t.Fatalf("join inputs still split: %d vs %d", naj, nbj)
	}
	// The moved stream's DDL was replayed on the join's node.
	moved := a
	if na == naj {
		moved = b
	}
	rep := dialRaw(t, nodes[naj].Primary).cmd("STREAM " + moved + " seq temp:dist")
	if last := rep[len(rep)-1]; !strings.Contains(last, "already registered") {
		t.Fatalf("stream %s not replayed on the join's node %d: %s", moved, naj, last)
	}

	// Subscribe lands on qa's replica, which must first apply the
	// replicated QUERY record.
	catchUpAll(t, primaries, followers)
	if err := cl.Subscribe("qa"); err != nil {
		t.Fatal(err)
	}

	// Routed ingest to both streams.
	rows := batchRowsRaw(t, 3)
	if _, err := cl.InsertBatch(a, rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InsertBatch(b, rows...); err != nil {
		t.Fatal(err)
	}
	catchUpAll(t, primaries, followers)

	// Replica-served stats: qa saw 3 tuples.
	st, err := cl.Stats("qa")
	if err != nil {
		t.Fatal(err)
	}
	if st.In != 3 {
		t.Fatalf("qa In = %d, want 3", st.In)
	}
	if _, err := cl.QueryMetrics("qa"); err != nil {
		t.Fatal(err)
	}
	if plan, err := cl.Explain("qa"); err != nil || plan == "" {
		t.Fatalf("explain: %q, %v", plan, err)
	}

	// Subscribed DATA flowed through the router onto Data().
	select {
	case d := <-cl.Data():
		if d.QueryID != "qa" {
			t.Fatalf("unexpected data for %q", d.QueryID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no DATA arrived on the client's channel")
	}

	if err := cl.CloseQuery("qa"); err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.topo.queryNode("qa"); ok {
		t.Fatal("closed query qa is still placed")
	}
}

// A router built with a negative Retries gives a tagged ingest one
// attempt, and it applies, instead of a walk of zero attempts that
// reports success.
func TestRouterNegativeRetriesIngests(t *testing.T) {
	p := startPrimary(t, 1, 1<<20, 0)
	pc := dialRaw(t, p.addr)
	pc.mustOK("STREAM temps seq temp:dist")
	pc.mustOK("QUERY q1 SELECT temp FROM temps")
	rt, addr := startRouter(t, []Node{{Primary: p.addr}}, server.DialOptions{Retries: -1})
	rt.topo.registerStream("temps", "temps seq temp:dist")
	cl := dialClient(t, addr, server.DialOptions{Retries: 1, Seed: 5})
	retriesBefore := mRouteRetries.Value()
	results, err := cl.Insert("temps", batchRowsRaw(t, 1)[0]...)
	if err != nil || results != 1 {
		t.Fatalf("Insert = %d, %v; want 1 result", results, err)
	}
	if got := mRouteRetries.Value() - retriesBefore; got != 0 {
		t.Fatalf("%d retries, want one attempt", got)
	}
	rep := pc.mustOK("STATS q1")
	if stats := rep[len(rep)-1]; !strings.Contains(stats, `"In":1,`) {
		t.Fatalf("tuple not applied once: %s", stats)
	}
}

// A query id names one query in the whole cluster. The router refuses an
// id already placed on any node, with the server's own text, and an id
// whose registration the backend rejected stays free.
func TestRouterQueryIDOncePerCluster(t *testing.T) {
	p1 := startPrimary(t, 1, 1<<20, 0)
	p2 := startPrimary(t, 1, 1<<20, 0)
	nodes := []Node{{Primary: p1.addr}, {Primary: p2.addr}}
	rt, addr := startRouter(t, nodes, server.DialOptions{})
	rc := dialRaw(t, addr)
	var a, b string
	for i := 0; i < 64 && b == ""; i++ {
		name := fmt.Sprintf("d%d", i)
		rc.mustOK("STREAM " + name + " seq temp:dist")
		if a == "" {
			a = name
		} else if mustNode(t, rt, name) != mustNode(t, rt, a) {
			b = name
		}
	}
	if b == "" {
		t.Fatal("hash put 64 streams on one node")
	}

	rc.mustOK("QUERY q1 SELECT temp FROM " + a)
	rep := rc.cmd("QUERY q1 SELECT temp FROM " + b)
	if got, want := rep[len(rep)-1], `ERR query id "q1" already in use`; got != want {
		t.Fatalf("second q1 on another node: %q, want %q", got, want)
	}
	// b's node never saw q1, and CLOSE reaches the one that did.
	if rep := dialRaw(t, nodes[mustNode(t, rt, b)].Primary).cmd("STATS q1"); !strings.HasPrefix(rep[len(rep)-1], "ERR") {
		t.Fatalf("q1 registered on b's node too: %v", rep)
	}
	rc.mustOK("CLOSE q1")
	if rep := dialRaw(t, nodes[mustNode(t, rt, a)].Primary).cmd("STATS q1"); !strings.HasPrefix(rep[len(rep)-1], "ERR") {
		t.Fatalf("q1 still runs on a's node after CLOSE: %v", rep)
	}

	// A registration the backend rejects places nothing.
	if rep := rc.cmd("QUERY q3 SELECT nosuchcol FROM " + a); !strings.HasPrefix(rep[len(rep)-1], "ERR") {
		t.Fatalf("query over a missing column: %v", rep)
	}
	if _, ok := rt.topo.queryNode("q3"); ok {
		t.Fatal("rejected q3 is still placed")
	}
	rc.mustOK("QUERY q3 SELECT temp FROM " + b)
}

// The router reads a request line as asdbd does: a whitespace-only line is
// no request — nothing is forwarded, nothing answered, the session's
// backend link and its queries stay — and a leading space still routes a
// line by its verb, to the node that owns the stream.
func TestRouterTrimsRequestLines(t *testing.T) {
	p1 := startPrimary(t, 1, 1<<20, 0)
	p2 := startPrimary(t, 1, 1<<20, 0)
	nodes := []Node{{Primary: p1.addr}, {Primary: p2.addr}}
	rt, addr := startRouter(t, nodes, server.DialOptions{OpTimeout: time.Second})
	rc := dialRaw(t, addr)
	var s string
	for i := 0; i < 64 && s == ""; i++ {
		name := fmt.Sprintf("w%d", i)
		rc.mustOK("STREAM " + name + " seq temp:dist")
		if mustNode(t, rt, name) != 0 {
			s = name
		}
	}
	if s == "" {
		t.Fatal("hash put 64 streams on node 0")
	}
	rc.mustOK("QUERY q1 SELECT temp FROM " + s)

	delivers := func(line string) {
		t.Helper()
		rep := rc.cmd(line)
		if len(rep) != 2 || !strings.HasPrefix(rep[0], "DATA q1 ") || !strings.HasPrefix(rep[1], "OK inserted") {
			t.Fatalf("%q: %v, want one DATA q1 line and OK", line, rep)
		}
	}
	rc.send("   ")
	delivers("INSERT " + s + " 1 N(60,4,25)")
	rc.send(" \t ")
	delivers("  INSERT " + s + " 2 N(61,4,25)")
	if rep := rc.mustOK(" STATS q1"); !strings.Contains(rep[len(rep)-1], `"In":2,`) {
		t.Fatalf("STATS q1: %v", rep)
	}
}

func mustNode(t *testing.T, rt *Router, stream string) int {
	t.Helper()
	n, ok := rt.topo.streamNode(stream)
	if !ok {
		t.Fatalf("router did not place %s", stream)
	}
	return n
}

// The router proxies the full protocol: sharded DDL, placed queries,
// verbatim DATA relay to attached clients, replica reads, failover
// ingest.
func TestRouterEndToEnd(t *testing.T) {
	nodes, primaries, followers := twoNodeCluster(t)
	rt, addr := startRouter(t, nodes, server.DialOptions{Retries: 2, RetryBase: 2 * time.Millisecond})

	rc := dialRaw(t, addr)
	if rep := rc.cmd("PING"); rep[len(rep)-1] != "OK pong" {
		t.Fatalf("PING: %v", rep)
	}
	// Spread streams across both nodes through the router.
	names := []string{}
	seen := map[int]bool{}
	for i := 0; i < 64 && len(seen) < 2; i++ {
		name := fmt.Sprintf("r%d", i)
		rc.mustOK("STREAM " + name + " seq temp:dist")
		n, ok := rt.topo.streamNode(name)
		if !ok {
			t.Fatalf("router did not place %s", name)
		}
		seen[n] = true
		names = append(names, name)
	}
	if len(seen) < 2 {
		t.Fatal("router put 64 streams on one node")
	}
	first, last := names[0], names[len(names)-1]
	rc.mustOK("QUERY rq1 SELECT temp FROM " + first)
	// ATTACH routes to the query's replica, which must first apply the
	// replicated QUERY record.
	catchUpAll(t, primaries, followers)
	rc.mustOK("ATTACH rq1")
	// The OK comes from the primary, the relayed DATA frame from the
	// replica once the insert replicates — either order is legal on the
	// wire.
	rep := rc.mustOK("INSERT " + first + " 1 N(60,4,25)")
	frames := rep[:len(rep)-1]
	if len(frames) == 0 {
		frames = collectData(t, rc, 1)
	}
	if !strings.HasPrefix(frames[0], "DATA rq1 ") {
		t.Fatalf("expected relayed DATA through router, got %v", frames)
	}
	rc.mustOK("INSERT " + last + " 1 N(50,4,25)")

	// Ingest with a client-minted request id retries across failover
	// targets (here it just succeeds on the primary).
	rc.mustOK("INSERT " + first + " 2 N(61,4,25) @req-1")
	// A retried duplicate is answered from the dedup window, not
	// re-applied.
	dup := rc.mustOK("INSERT " + first + " 2 N(61,4,25) @req-1")
	if !strings.HasPrefix(dup[len(dup)-1], "OK inserted") {
		t.Fatalf("dedup replay: %v", dup)
	}
	catchUpAll(t, primaries, followers)
	stats := rc.mustOK("STATS rq1")
	if !strings.Contains(stats[len(stats)-1], `"In":2,`) {
		t.Fatalf("rq1 stats (dedup must keep In at 2): %s", stats[len(stats)-1])
	}

	// Unknown stream and unknown query get routing errors.
	if rep := rc.cmd("INSERT nosuch 1 N(1,1,1)"); !strings.HasPrefix(rep[len(rep)-1], "ERR") {
		t.Fatalf("unknown stream: %v", rep)
	}
	if rep := rc.cmd("CLOSE nosuchq"); !strings.HasPrefix(rep[len(rep)-1], "ERR") {
		t.Fatalf("unknown query: %v", rep)
	}
	rc.mustOK("CLOSE rq1")
	if rep := rc.cmd("QUIT"); rep[len(rep)-1] != "OK bye" {
		t.Fatalf("QUIT: %v", rep)
	}
}

// batchRowsRaw mirrors the server chaos suite's batch builder.
func batchRowsRaw(t *testing.T, n int) [][]randvar.Field {
	t.Helper()
	rows := make([][]randvar.Field, n)
	for i := range rows {
		f, err := server.ParseFieldSpec(fmt.Sprintf("N(%d.5,2.25,%d)", 10+i, 20+i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = []randvar.Field{randvar.Det(float64(i)), f}
	}
	return rows
}
