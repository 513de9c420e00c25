package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/randvar"
	"repro/internal/server"
)

// shipProxy fronts a primary's ship listener with a deterministic fault
// schedule keyed by connection index (each follower reconnect is a new
// index).
func shipProxy(t testing.TB, target string, faults func(i int) fault.ConnFaults) *fault.Proxy {
	t.Helper()
	pr, err := fault.NewProxy(target, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pr.Close)
	return pr
}

// collectData reads n DATA lines from an attached follower connection
// (they arrive asynchronously as replicated records apply).
func collectData(t testing.TB, c *raw, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for len(out) < n {
		s := c.line()
		if !strings.HasPrefix(s, "DATA ") {
			t.Fatalf("expected DATA line, got %q", s)
		}
		out = append(out, s)
	}
	return out
}

// The tentpole correctness claim: followers behind latency, chunked
// writes, and repeated mid-message connection drops still produce DATA
// frames byte-identical to the primary's — at every worker count, and
// across followers with different worker counts, because WAL order is
// engine order and rendering is deterministic.
func TestChaosReplicaDataByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := startPrimary(t, workers, 1<<20, 0)
			// Conn 0 tears mid-stream after 2000 shipped bytes, conn 1
			// after 6000 more, with latency and tiny chunks throughout;
			// conn 2+ is slow but stable, letting the run finish.
			proxy := shipProxy(t, p.shipAddr, func(i int) fault.ConnFaults {
				switch i {
				case 0:
					return fault.ConnFaults{WriteLatency: time.Millisecond, ChunkBytes: 7, DropAfterReadBytes: 2000}
				case 1:
					return fault.ConnFaults{ChunkBytes: 13, DropAfterReadBytes: 6000}
				default:
					return fault.ConnFaults{WriteLatency: 200 * time.Microsecond, ChunkBytes: 64}
				}
			})
			// One follower at workers=1 and one at workers=8, both through
			// independent chaos proxies: cross-worker byte identity.
			proxy2 := shipProxy(t, p.shipAddr, func(i int) fault.ConnFaults {
				if i == 0 {
					return fault.ConnFaults{ChunkBytes: 11, DropAfterReadBytes: 4000}
				}
				return fault.ConnFaults{}
			})
			f1 := startFollower(t, 1, proxy.Addr())
			f8 := startFollower(t, 8, proxy2.Addr())

			pc := dialRaw(t, p.addr)
			seedGolden(t, pc)
			waitCaughtUp(t, p, f1)
			waitCaughtUp(t, p, f8)
			fc1 := dialRaw(t, f1.addr)
			fc8 := dialRaw(t, f8.addr)
			for _, fc := range []*raw{fc1, fc8} {
				fc.mustOK("ATTACH q1")
				fc.mustOK("ATTACH q2")
			}

			// The workload: enough inserts that the shipped stream spans
			// both injected tears, plus batches (single-frame records).
			var primaryData []string
			for i := 0; i < 20; i++ {
				rep := pc.mustOK(fmt.Sprintf("INSERT readings %d N(%d,4,25)", i+1, 40+i))
				primaryData = append(primaryData, rep[:len(rep)-1]...)
			}
			rep := pc.mustOK("INSERTBATCH readings 100 N(75,16,9) | 101 S(55;52;58;61) | 102 N(66,9,12)")
			primaryData = append(primaryData, rep[:len(rep)-1]...)

			waitCaughtUp(t, p, f1)
			waitCaughtUp(t, p, f8)
			got1 := collectData(t, fc1, len(primaryData))
			got8 := collectData(t, fc8, len(primaryData))
			for i := range primaryData {
				if got1[i] != primaryData[i] {
					t.Fatalf("workers=1 follower frame %d diverged:\nprimary:  %s\nfollower: %s", i, primaryData[i], got1[i])
				}
				if got8[i] != primaryData[i] {
					t.Fatalf("workers=8 follower frame %d diverged:\nprimary:  %s\nfollower: %s", i, primaryData[i], got8[i])
				}
			}

			pr := dialRaw(t, p.addr)
			compareReplies(t, pr, fc1, "STATS q1", "STATS q2", "METRICS q1", "METRICS q2")
			pr2 := dialRaw(t, p.addr)
			compareReplies(t, pr2, fc8, "STATS q1", "STATS q2", "METRICS q1", "METRICS q2")
		})
	}
}

// A partition (proxy refusing all traffic by dropping every byte) heals:
// the follower reconnects with SYNC lastApplied and resumes with no gap
// and no duplicate.
func TestChaosPartitionHeal(t *testing.T) {
	p := startPrimary(t, 2, 1<<20, 0)
	// Conns 0 and 1 die almost immediately (partition); conn 2+ is clean.
	proxy := shipProxy(t, p.shipAddr, func(i int) fault.ConnFaults {
		if i < 2 {
			return fault.ConnFaults{DropAfterReadBytes: 1}
		}
		return fault.ConnFaults{}
	})
	f := startFollower(t, 1, proxy.Addr())
	pc := dialRaw(t, p.addr)
	seedGolden(t, pc)
	insertN(t, pc, 10, 1)
	waitCaughtUp(t, p, f)
	if err := f.f.Err(); err != nil {
		t.Fatalf("follower terminal error after partition heal: %v", err)
	}
	pr := dialRaw(t, p.addr)
	fc := dialRaw(t, f.addr)
	compareReplies(t, pr, fc, "STATS q1", "STATS q2", "METRICS q1", "METRICS q2")
}

// The acceptance scenario: an INSERTBATCH routed through the Router whose
// reply is torn by the network, retried after the primary dies and the
// follower is promoted, applies exactly once — the promoted follower
// answers the retry from its replicated dedup window with the primary's
// exact reply.
func TestChaosFailoverExactlyOnce(t *testing.T) {
	p := startPrimary(t, 1, 1<<20, 0)
	f := startFollower(t, 1, p.shipAddr)

	pc := dialRaw(t, p.addr)
	pc.mustOK("STREAM temps seq temp:dist")
	pc.mustOK("QUERY q1 SELECT temp FROM temps")
	waitCaughtUp(t, p, f)

	// Router side: node whose primary address goes through a proxy that
	// tears the FIRST ingest reply mid-line, with the follower as the
	// failover target. DDL already happened out of band, so conn 0's
	// fault budget is spent entirely on the ingest exchange.
	proxy := shipProxy(t, p.addr, func(i int) fault.ConnFaults {
		if i == 0 {
			return fault.ConnFaults{DropAfterReadBytes: 5}
		}
		return fault.ConnFaults{}
	})
	rt, addr := startRouter(t, []Node{{Primary: proxy.Addr(), Replicas: []string{f.addr}}}, server.DialOptions{
		Retries:   3,
		RetryBase: 2 * time.Millisecond,
		OpTimeout: 2 * time.Second,
		Seed:      99,
	})
	// The stream exists server-side; seed the router's placement map.
	rt.topo.registerStream("temps", "temps seq temp:dist")
	// The client in front of the router mints the request id; its op
	// timeout (the default) covers the router's whole walk.
	cl := dialClient(t, addr, server.DialOptions{Retries: 1, Seed: 99})

	// Between the torn attempt and the retry: make sure the batch has
	// replicated, then promote the follower and kill the primary — the
	// failover the retry must survive.
	var failover sync.Once
	testHookRouteRetry = func(int) {
		failover.Do(func() {
			if !f.f.WaitCaughtUp(p.srv.WAL().LastLSN(), 5*time.Second) {
				t.Error("follower never received the torn batch")
			}
			f.f.Promote()
			p.ship.Close()
			pc.nc.Close() // Close waits for live connections to drain.
			p.srv.Close()
		})
	}
	t.Cleanup(func() { testHookRouteRetry = nil })

	rows := make([][]randvar.Field, 3)
	for i := range rows {
		fl, err := server.ParseFieldSpec(fmt.Sprintf("N(%d.5,2.25,%d)", 10+i, 20+i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = []randvar.Field{randvar.Det(float64(i)), fl}
	}
	retriesBefore := mRouteRetries.Value()
	results, err := cl.InsertBatch("temps", rows...)
	if err != nil {
		t.Fatalf("routed batch failed across failover: %v", err)
	}
	if results != 3 {
		t.Fatalf("batch results = %d, want 3 (the dedup window must return the primary's reply)", results)
	}
	if got := mRouteRetries.Value() - retriesBefore; got == 0 {
		t.Fatal("expected asdb_route_retries_total to count the failover retry")
	}

	// Exactly once: the promoted follower holds 3 tuples, not 6.
	fc := dialRaw(t, f.addr)
	rep := fc.mustOK("STATS q1")
	stats := rep[len(rep)-1]
	if !strings.Contains(stats, `"In":3,`) {
		t.Fatalf("promoted follower applied the batch more than once: %s", stats)
	}

	// And the promoted node keeps serving: a fresh (non-deduped) batch
	// applies normally.
	if _, err := cl.InsertBatch("temps", rows[0]); err != nil {
		t.Fatalf("post-failover batch: %v", err)
	}
	rep = fc.mustOK("STATS q1")
	if stats = rep[len(rep)-1]; !strings.Contains(stats, `"In":4,`) {
		t.Fatalf("post-failover batch not applied: %s", stats)
	}
}
