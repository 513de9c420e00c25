package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// reqIDLines are two tagged ingests into q1's one-row window: one whose
// result renders, and one whose result cannot be (its variance overflows
// the interval to +Inf).
var reqIDLines = []string{
	"INSERT temps 1 N(1,1,5) @ok",
	"INSERT temps 2 N(1,1.7e308,5) @bad",
}

func seedReqID(c *raw) {
	c.mustOK("STREAM temps key val:dist")
	c.mustOK("QUERY q1 SELECT AVG(val) AS s FROM temps WINDOW 1 ROWS")
}

// sendReqID sends reqIDLines on c and returns each line's reply.
func sendReqID(c *raw) []string {
	var replies []string
	for _, line := range reqIDLines {
		rep := c.cmd(line)
		replies = append(replies, rep[len(rep)-1])
	}
	return replies
}

// restartNode stops n the way a crash would — no shutdown checkpoint, and
// read-only first so departing owners journal no CLOSE — and recovers a
// new server from its data directory.
func restartNode(t *testing.T, n *tnode) string {
	t.Helper()
	n.srv.SetReadOnly(true)
	n.ship.Close()
	if err := n.srv.Detach(); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(n.cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewDurable(eng, quiet)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// TestReqIDReplyEverywhere: an @reqid ingest gets one reply wherever its
// retry lands, whether its result rendered or could not be, and applies
// once. The first attempt's replies on a primary whose inserting
// connection owns q1 are the reference; every other node answers a retry
// of both lines byte-identically and holds each tuple once (STATS In).
func TestReqIDReplyEverywhere(t *testing.T) {
	p := startPrimary(t, 1, 1<<20, 0)
	withSub := startFollower(t, 1, p.shipAddr)
	noSub := startFollower(t, 1, p.shipAddr)
	pc := dialRaw(t, p.addr)
	seedReqID(pc)
	waitCaughtUp(t, p, withSub)
	dialRaw(t, withSub.addr).mustOK("SUBSCRIBE q1")
	want := sendReqID(pc)
	if !strings.HasPrefix(want[0], "OK inserted results=1") ||
		!strings.HasPrefix(want[1], "ERR query q1: json: unsupported value: +Inf") {
		t.Fatalf("reference replies %q, want one rendered result and one render failure", want)
	}
	check := func(name, addr string) {
		t.Helper()
		if got := sendReqID(dialRaw(t, addr)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: replies %q, want %q", name, got, want)
		}
		rep := dialRaw(t, addr).mustOK("STATS q1")
		if stats := rep[len(rep)-1]; !strings.Contains(stats, `"In":2,`) {
			t.Errorf("%s: %s, want each tuple applied once", name, stats)
		}
	}
	check("retry on the primary", p.addr)
	waitCaughtUp(t, p, withSub)
	waitCaughtUp(t, p, noSub)
	withSub.f.Promote()
	noSub.f.Promote()
	check("promoted follower with a subscriber", withSub.addr)
	check("promoted follower without one", noSub.addr)
	check("recovered primary, records replayed", restartNode(t, p))

	// q1 has no recipient once recovery leaves it detached.
	detached := startPrimary(t, 1, 1<<20, 0)
	seedReqID(dialRaw(t, detached.addr))
	check("live with no recipient", restartNode(t, detached))

	// A checkpoint after every two records covers both ingests, and small
	// segments let the padding after them truncate the WAL past them: a
	// follower must bootstrap from the snapshot, and recovery replays none
	// of them.
	ck := startPrimary(t, 1, 2, 128)
	cc := dialRaw(t, ck.addr)
	seedReqID(cc)
	if got := sendReqID(cc); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("checkpointing primary: replies %q, want %q", got, want)
	}
	ingested := ck.srv.WAL().LastLSN()
	cc.mustOK("STREAM pad k v")
	for i := 0; i < 8; i++ {
		cc.mustOK(fmt.Sprintf("INSERT pad %d %d", i, i))
	}
	if oldest, err := ck.srv.WAL().OldestLSN(); err != nil || oldest <= ingested {
		t.Fatalf("oldest wal lsn %d (%v), want past the ingests at %d", oldest, err, ingested)
	}
	snapped := startFollower(t, 1, ck.shipAddr)
	waitCaughtUp(t, ck, snapped)
	snapped.f.Promote()
	check("promoted SNAP-bootstrapped follower", snapped.addr)
	check("recovered primary, records checkpointed", restartNode(t, ck))
}
