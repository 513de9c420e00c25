package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// dialBench opens a request/reply connection for benchmarks (panics on
// error; RunParallel goroutines must not call b.Fatal).
func dialBench(addr string) *server.Conn {
	c, err := server.DialConn(addr, server.DialOptions{}, func(string) {})
	if err != nil {
		panic(err)
	}
	return c
}

// benchDo sends one command and returns its OK reply line.
func benchDo(c *server.Conn, line string) string {
	rep, err := c.Exchange(line)
	if err != nil {
		panic(err)
	}
	if !strings.HasPrefix(rep, "OK") {
		panic(rep)
	}
	return rep
}

// BenchmarkReadFanout measures STATS round-trips against one node under
// concurrent readers: all traffic on the primary vs fanned out across two
// replicas. The replicas serve the identical bytes (replication is
// deterministic), so the fan-out buys pure read scaling.
func BenchmarkReadFanout(b *testing.B) {
	p := startPrimary(b, 0, 1<<20, 0)
	f1 := startFollower(b, 0, p.shipAddr)
	f2 := startFollower(b, 0, p.shipAddr)
	pc := dialRaw(b, p.addr)
	seedGolden(b, pc)
	insertN(b, pc, 32, 1)
	for _, f := range []*tnode{f1, f2} {
		lsn := p.srv.WAL().LastLSN()
		if !f.f.WaitCaughtUp(lsn, 10*time.Second) {
			b.Fatalf("follower stuck at %d, want %d", f.f.LastApplied(), lsn)
		}
	}

	cases := []struct {
		name  string
		addrs []string
	}{
		{"target=primary", []string{p.addr}},
		{"target=replicas", []string{f1.addr, f2.addr}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var next atomic.Uint32
			b.ReportAllocs()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				addr := tc.addrs[int(next.Add(1))%len(tc.addrs)]
				c := dialBench(addr)
				defer c.Close()
				for pb.Next() {
					benchDo(c, "STATS q2")
				}
			})
		})
	}
}

// BenchmarkRoutedIngest measures INSERTBATCH throughput through the
// cluster routing layer: one node vs four, streams sharded so concurrent
// writers spread across the primaries.
func BenchmarkRoutedIngest(b *testing.B) {
	const batch = "INSERTBATCH %s 1 N(60,4,25) | 2 N(40,9,16) | 3 N(75,16,9) | 4 S(55;52;58;61)"
	for _, nnodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nnodes), func(b *testing.B) {
			primaries := make([]*tnode, nnodes)
			nodes := make([]Node, nnodes)
			for i := range primaries {
				primaries[i] = startPrimary(b, 0, 1<<20, 0)
				nodes[i] = Node{Primary: primaries[i].addr}
			}
			// One stream per node: probe names until each node owns one.
			tp, err := newTopo(nodes)
			if err != nil {
				b.Fatal(err)
			}
			streams := make([]string, nnodes)
			for i := 0; i < 256; i++ {
				name := fmt.Sprintf("bench%d", i)
				n := tp.registerStream(name, "")
				if streams[n] == "" {
					streams[n] = name
					pc := dialBench(primaries[n].addr)
					benchDo(pc, "STREAM "+name+" seq temp:dist")
					pc.Close()
				}
			}
			for i, s := range streams {
				if s == "" {
					b.Fatalf("no stream landed on node %d", i)
				}
			}
			var next atomic.Uint32
			b.ReportAllocs()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each worker writes to one shard, workers round-robin
				// across shards — the cluster-client routing decision
				// precomputed, the per-node serving path measured.
				idx := int(next.Add(1)) % nnodes
				c := dialBench(primaries[idx].addr)
				defer c.Close()
				line := fmt.Sprintf(batch, streams[idx])
				for pb.Next() {
					benchDo(c, line)
				}
			})
		})
	}
}
