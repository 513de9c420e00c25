package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/randvar"
	"repro/internal/server"
)

// Failover-walk scenarios, run against the Router two ways: a raw line
// that carries its own @reqid (or none), and a server.Client in front of
// the router that mints the id, as operators run it. Each scenario
// scripts one shard of fake nodes — tiny TCP listeners that record every
// line they receive and answer from a script — and pins the exact sequence
// of (target, line) contacts, the outcome the caller sees, and the retry
// accounting (hook calls and asdb_route_retries_total).

// walkOpts are the router's options: tc.retries, a fast backoff and a
// fixed seed.
func walkOpts(retries int) server.DialOptions {
	return server.DialOptions{Retries: retries, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Seed: 1}
}

// walkTear as a scripted reply writes half a reply line, then closes the
// connection.
const walkTear = "TEAR"

// walkTransport is the outcome of a walk that ended on a transport error,
// whose text names addresses and so is not pinned.
const walkTransport = "ERR <transport>"

// walkNode scripts one fake node: dead means nothing listens on its
// address; otherwise the i-th line the node receives (over any of its
// connections) is answered with replies[i], the last reply repeating.
type walkNode struct {
	dead    bool
	replies []string
}

type walkCase struct {
	name    string
	retries int
	// bare: the ingest line carries no @reqid (raw line only; a client
	// with retries tags every ingest).
	bare  bool
	nodes []walkNode // primary, then replicas
	// contacts are "<target>: <line>" in arrival order, targets labelled P,
	// R1, R2 and the request id shown as @ID.
	contacts []string
	outcome  string
	retried  int
}

var walkCases = []walkCase{
	{
		name:     "dead primary, replica answers",
		retries:  2,
		nodes:    []walkNode{{dead: true}, {replies: []string{"OK inserted results=1"}}},
		contacts: []string{"R1: INSERT ws 1 @ID"},
		outcome:  "OK inserted results=1",
		retried:  1,
	},
	{
		name:     "read-only replica walks on",
		retries:  2,
		nodes:    []walkNode{{replies: []string{"ERR read-only replica"}}, {replies: []string{"OK inserted results=2"}}},
		contacts: []string{"P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID"},
		outcome:  "OK inserted results=2",
		retried:  1,
	},
	{
		name:     "fenced stale epoch walks on",
		retries:  2,
		nodes:    []walkNode{{replies: []string{"ERR fenced: stale epoch"}}, {replies: []string{"OK inserted results=3"}}},
		contacts: []string{"P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID"},
		outcome:  "OK inserted results=3",
		retried:  1,
	},
	{
		name:    "other ERR stops the walk",
		retries: 3,
		nodes: []walkNode{
			{replies: []string{"ERR read-only replica"}},
			{replies: []string{`ERR unknown stream "ws"`}},
			{replies: []string{"OK inserted results=4"}},
		},
		contacts: []string{"P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID"},
		outcome:  `ERR unknown stream "ws"`,
		retried:  1,
	},
	{
		name:     "torn reply resends the same line",
		retries:  2,
		nodes:    []walkNode{{replies: []string{walkTear}}, {replies: []string{"OK inserted results=5"}}},
		contacts: []string{"P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID"},
		outcome:  "OK inserted results=5",
		retried:  1,
	},
	{
		name:     "bare line gets one attempt",
		retries:  3,
		bare:     true,
		nodes:    []walkNode{{replies: []string{"ERR read-only replica"}}, {replies: []string{"OK inserted results=6"}}},
		contacts: []string{"P: INSERT ws 1"},
		outcome:  "ERR read-only replica",
		retried:  0,
	},
	{
		name:     "bare line to a dead primary",
		retries:  3,
		bare:     true,
		nodes:    []walkNode{{dead: true}, {replies: []string{"OK inserted results=7"}}},
		contacts: nil,
		outcome:  walkTransport,
		retried:  0,
	},
	{
		name:    "attempts exhausted returns the last error",
		retries: 2,
		nodes: []walkNode{
			{replies: []string{"ERR read-only replica"}},
			{replies: []string{"ERR read-only replica"}},
			{replies: []string{"ERR fenced: stale epoch"}},
		},
		contacts: []string{"P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID", "R2: INSERT ws 1 @ID"},
		outcome:  "ERR fenced: stale epoch",
		retried:  2,
	},
	{
		name:     "rotation wraps around the targets",
		retries:  4,
		nodes:    []walkNode{{replies: []string{"ERR fenced: stale epoch"}}, {replies: []string{"ERR read-only replica"}}},
		contacts: []string{"P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID", "P: INSERT ws 1 @ID", "R1: INSERT ws 1 @ID", "P: INSERT ws 1 @ID"},
		outcome:  "ERR fenced: stale epoch",
		retried:  4,
	},
	{
		name:     "attempts exhausted on transport errors",
		retries:  2,
		nodes:    []walkNode{{dead: true}, {replies: []string{walkTear}}},
		contacts: []string{"R1: INSERT ws 1 @ID"},
		outcome:  walkTransport,
		retried:  2,
	},
}

func TestFailoverWalk(t *testing.T) {
	for _, tc := range walkCases {
		for _, front := range []string{"router", "client-via-router"} {
			if tc.bare && front != "router" {
				continue
			}
			t.Run(tc.name+"/"+front, func(t *testing.T) { runWalkCase(t, tc, front) })
		}
	}
}

func runWalkCase(t *testing.T, tc walkCase, front string) {
	shard := startWalkShard(t, tc.nodes)
	nodes := []Node{{Primary: shard.addrs[0], Replicas: shard.addrs[1:]}}

	var hookMu sync.Mutex
	var hooked []int
	testHookRouteRetry = func(attempt int) {
		hookMu.Lock()
		hooked = append(hooked, attempt)
		hookMu.Unlock()
	}
	t.Cleanup(func() { testHookRouteRetry = nil })
	retriesBefore := mRouteRetries.Value()

	rt, addr := startRouter(t, nodes, walkOpts(tc.retries))
	rt.topo.registerStream("ws", "ws x")
	var outcome string
	if front == "router" {
		line := "INSERT ws 1 @walk-1"
		if tc.bare {
			line = "INSERT ws 1"
		}
		rep := dialRaw(t, addr).cmd(line)
		outcome = rep[len(rep)-1]
	} else {
		// The client mints the request id; the router walks with
		// tc.retries and answers the walk's last reply.
		cl := dialClient(t, addr, server.DialOptions{Retries: 1, Seed: 1})
		n, err := cl.Insert("ws", randvar.Det(1))
		var se server.ServerError
		switch {
		case err == nil:
			outcome = fmt.Sprintf("OK inserted results=%d", n)
		case errors.As(err, &se):
			outcome = "ERR " + string(se)
		default:
			t.Fatalf("client to router: %v", err)
		}
	}
	if msg, ok := strings.CutPrefix(outcome, "ERR "); ok && !shard.scripted("ERR "+msg) {
		outcome = walkTransport
	}

	contacts, ids := shard.record()
	if !reflect.DeepEqual(contacts, tc.contacts) {
		t.Errorf("contacts:\n  got  %q\n  want %q", contacts, tc.contacts)
	}
	if len(ids) > 1 {
		t.Errorf("one ingest reached the nodes under %d request ids: %v", len(ids), ids)
	}
	if outcome != tc.outcome {
		t.Errorf("outcome = %q, want %q", outcome, tc.outcome)
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	want := []int{}
	for a := 1; a <= tc.retried; a++ {
		want = append(want, a)
	}
	if got := append([]int{}, hooked...); !reflect.DeepEqual(got, want) {
		t.Errorf("retry hook saw attempts %v, want %v", got, want)
	}
	if got := mRouteRetries.Value() - retriesBefore; got != uint64(tc.retried) {
		t.Errorf("asdb_route_retries_total rose by %d, want %d", got, tc.retried)
	}
}

// walkShard is one scripted shard: the fake nodes' addresses plus the log
// of every line they received.
type walkShard struct {
	addrs   []string
	scripts []walkNode

	mu       sync.Mutex
	contacts []string
	ids      map[string]bool
}

func startWalkShard(t *testing.T, scripts []walkNode) *walkShard {
	t.Helper()
	sh := &walkShard{scripts: scripts, ids: make(map[string]bool)}
	for i, sc := range scripts {
		label := "P"
		if i > 0 {
			label = fmt.Sprintf("R%d", i)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sh.addrs = append(sh.addrs, ln.Addr().String())
		if sc.dead {
			ln.Close()
			continue
		}
		t.Cleanup(func() { ln.Close() })
		go sh.serve(ln, label, sc.replies)
	}
	return sh
}

func (sh *walkShard) serve(ln net.Listener, label string, replies []string) {
	answered := 0 // guarded by sh.mu
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			br := bufio.NewReader(nc)
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				line = strings.TrimSuffix(line, "\n")
				sh.mu.Lock()
				if i := strings.LastIndex(line, " @"); i >= 0 {
					sh.ids[line[i+2:]] = true
					line = line[:i] + " @ID"
				}
				sh.contacts = append(sh.contacts, label+": "+line)
				rep := replies[min(answered, len(replies)-1)]
				answered++
				sh.mu.Unlock()
				if rep == walkTear {
					nc.Write([]byte("OK inser"))
					return
				}
				if _, err := fmt.Fprintf(nc, "%s\n", rep); err != nil {
					return
				}
			}
		}()
	}
}

// scripted reports whether reply is one the script could have sent.
func (sh *walkShard) scripted(reply string) bool {
	for _, sc := range sh.scripts {
		for _, r := range sc.replies {
			if r == reply {
				return true
			}
		}
	}
	return false
}

func (sh *walkShard) record() ([]string, []string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ids := make([]string, 0, len(sh.ids))
	for id := range sh.ids {
		ids = append(ids, id)
	}
	return append([]string(nil), sh.contacts...), ids
}
