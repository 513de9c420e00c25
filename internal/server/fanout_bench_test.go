package server

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkDeliverFanout measures the serving path of one fanout-shared
// command: the results of a 4-tuple batch go through planDeliveries and
// sendDeliveries into discarding connections, one op per batch. members128
// is fanout-shared's shape, a 128-member plan group owned by the inserting
// connection (512 lines, 4 bodies); subs16 is one query whose lines go only
// to 16 other connections, outbox off, so each line is written
// synchronously.
func BenchmarkDeliverFanout(b *testing.B) {
	for _, arm := range []struct {
		name          string
		members, subs int
	}{{"members128", 128, 0}, {"subs16", 1, 16}} {
		b.Run(arm.name, func(b *testing.B) {
			s := newTestServer(b, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
			c := &conn{id: 1, c: &recConn{discard: true}}
			sharedFleet(b, s, c, arm.members)
			if arm.subs > 0 {
				for i := 0; i < arm.subs; i++ {
					mustDispatch(b, s, &conn{id: uint64(2 + i), c: &recConn{discard: true}}, "SUBSCRIBE q000")
				}
				s.queries["q000"].owner = nil
			}
			_, rows, err := parseInsertRows("s 5 N(10.5,4,25) | 6 N(11,3,30) | 7 N(12,5,9) | 8 N(9,2,40)", true)
			if err != nil {
				b.Fatal(err)
			}
			results, err := s.engine.IngestBatch("s", rows, nil)
			if err != nil {
				b.Fatal(err)
			}
			reply := fmt.Sprintf("OK inserted tuples=4 results=%d", 4*arm.members)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.planDeliveries(&c.scratch, c, results); err != nil {
					b.Fatal(err)
				}
				if err := s.sendDeliveries(c, &c.scratch, reply); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
