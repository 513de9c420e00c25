package cluster

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// quiet discards node logs; failures are asserted through replies and
// follower state, not log scraping.
var quiet = log.New(io.Discard, "", 0)

// tnode is one test cluster member: a server plus (for primaries) its
// ship listener or (for followers) its replication loop.
type tnode struct {
	srv      *server.Server
	addr     string
	ship     *ShipServer
	shipAddr string
	f        *Follower
	cfg      core.Config // durable nodes: the config (incl. DataDir) to revive with
}

// engineConfig is the shared deterministic engine setup: replication
// requires primary and follower to agree on everything that shapes RNG
// evolution (seed, method, level); Workers deliberately varies per test
// because results are bit-identical at any worker count.
func engineConfig(workers int) core.Config {
	return core.Config{
		Seed:    7,
		Method:  core.AccuracyAnalytical,
		Level:   0.9,
		Workers: workers,
	}
}

// startPrimary boots a durable server plus its WAL-shipping listener.
func startPrimary(t testing.TB, workers, ckEvery int, segBytes int64) *tnode {
	t.Helper()
	cfg := engineConfig(workers)
	cfg.DataDir = t.TempDir()
	cfg.FsyncPolicy = "none"
	cfg.CheckpointEvery = ckEvery
	cfg.WALSegmentBytes = segBytes
	eng, err := core.NewEngine(cfg)
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
	ship, err := NewShipServer(srv, quiet, ShipOptions{
		Heartbeat: 10 * time.Millisecond,
		Poll:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAddr, err := ship.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ship.Serve()
	n := &tnode{srv: srv, addr: addr.String(), ship: ship, shipAddr: shipAddr.String(), cfg: cfg}
	t.Cleanup(func() {
		ship.Close()
		srv.Close()
	})
	return n
}

// startDurableFollower boots a read-only durable server (own data dir,
// write-through journaling of replicated records) syncing from shipAddr —
// the kind of follower a FailoverManager can promote into a primary that
// ships from the shared LSN space.
func startDurableFollower(t testing.TB, workers int, shipAddr string) *tnode {
	t.Helper()
	cfg := engineConfig(workers)
	cfg.DataDir = t.TempDir()
	cfg.FsyncPolicy = "none"
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewDurable(eng, quiet)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOptions(server.Options{ReadOnly: true})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	f := NewFollower(srv, shipAddr, quiet, FollowOptions{
		RetryBase:   2 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		ReadTimeout: 2 * time.Second,
	})
	f.SetLastApplied(srv.WAL().LastLSN())
	f.Start()
	n := &tnode{srv: srv, addr: addr.String(), f: f, cfg: cfg}
	t.Cleanup(func() {
		f.Close()
		srv.Close()
	})
	return n
}

// startFollower boots a fresh in-memory read-only server syncing from
// shipAddr (possibly a fault proxy in front of the primary's listener).
func startFollower(t testing.TB, workers int, shipAddr string) *tnode {
	t.Helper()
	eng, err := core.NewEngine(engineConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, quiet)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOptions(server.Options{ReadOnly: true})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	f := NewFollower(srv, shipAddr, quiet, FollowOptions{
		RetryBase:   2 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		ReadTimeout: 2 * time.Second,
	})
	f.Start()
	n := &tnode{srv: srv, addr: addr.String(), f: f}
	t.Cleanup(func() {
		f.Close()
		srv.Close()
	})
	return n
}

// startRouter serves a Router over nodes on a loopback port and returns it
// with its client address.
func startRouter(t testing.TB, nodes []Node, opts server.DialOptions) (*Router, string) {
	t.Helper()
	rt, err := NewRouter(nodes, quiet, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve()
	t.Cleanup(func() { rt.Close() })
	return rt, addr.String()
}

// dialClient connects a server.Client — the client operators run in front
// of asdb-router — to addr.
func dialClient(t testing.TB, addr string, opts server.DialOptions) *server.Client {
	t.Helper()
	cl, err := server.DialOpts(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// waitCaughtUp asserts the follower reaches the primary's current WAL
// frontier.
func waitCaughtUp(t testing.TB, p, f *tnode) uint64 {
	t.Helper()
	lsn := p.srv.WAL().LastLSN()
	if !f.f.WaitCaughtUp(lsn, 10*time.Second) {
		t.Fatalf("follower stuck at lsn %d, want %d (terminal err: %v)", f.f.LastApplied(), lsn, f.f.Err())
	}
	return lsn
}

// raw is a line-protocol connection for byte-level assertions.
type raw struct {
	t  testing.TB
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRaw(t testing.TB, addr string) *raw {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	r := &raw{t: t, nc: nc, br: bufio.NewReaderSize(nc, 1<<20), bw: bufio.NewWriter(nc)}
	t.Cleanup(func() { nc.Close() })
	return r
}

func (r *raw) send(line string) {
	r.t.Helper()
	if _, err := r.bw.WriteString(line + "\n"); err != nil {
		r.t.Fatalf("send %q: %v", line, err)
	}
	if err := r.bw.Flush(); err != nil {
		r.t.Fatalf("send %q: %v", line, err)
	}
}

func (r *raw) line() string {
	r.t.Helper()
	s, err := server.ReadLine(r.br, maxShipLine)
	if err != nil {
		r.t.Fatalf("read reply: %v", err)
	}
	return s
}

// cmd sends one command and returns every reply line through the
// terminating OK/ERR (DATA lines precede it).
func (r *raw) cmd(line string) []string {
	r.t.Helper()
	r.send(line)
	var out []string
	for {
		s := r.line()
		out = append(out, s)
		if strings.HasPrefix(s, "OK") || strings.HasPrefix(s, "ERR") {
			return out
		}
	}
}

func (r *raw) mustOK(line string) []string {
	r.t.Helper()
	out := r.cmd(line)
	if last := out[len(out)-1]; !strings.HasPrefix(last, "OK") {
		r.t.Fatalf("%q: %s", line, last)
	}
	return out
}

// compareReplies asserts a read command returns byte-identical replies on
// two nodes.
func compareReplies(t testing.TB, a, b *raw, cmds ...string) {
	t.Helper()
	for _, c := range cmds {
		ra := strings.Join(a.cmd(c), "\n")
		rb := strings.Join(b.cmd(c), "\n")
		if ra != rb {
			t.Errorf("%q diverged:\n  a: %s\n  b: %s", c, ra, rb)
		}
	}
}

// seedGolden loads the primary with the deterministic workload most tests
// share: one stream, a filter query, and a windowed aggregate.
func seedGolden(t testing.TB, p *raw) {
	t.Helper()
	p.mustOK("STREAM readings sensor temp:dist")
	p.mustOK("QUERY q1 SELECT temp FROM readings WHERE temp > 50")
	p.mustOK("QUERY q2 SELECT AVG(temp) AS avg_temp FROM readings WINDOW 3 ROWS")
}

func insertN(t testing.TB, p *raw, n, base int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p.mustOK(fmt.Sprintf("INSERT readings %d N(%d,4,25)", base+i, 40+(base+i)%40))
	}
}
