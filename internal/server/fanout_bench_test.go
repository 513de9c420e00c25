package server

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkDeliverFanout measures the serving path of one fanout-shared
// command: the results of a 4-tuple batch go through planDeliveries and
// sendDeliveries into a discarding connection, one op per batch, for
// fanout-shared's shape: a 128-member plan group owned by the inserting
// connection (512 lines, 4 bodies).
func BenchmarkDeliverFanout(b *testing.B) {
	b.Run("members128", func(b *testing.B) {
		const members = 128
		s := newTestServer(b, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
		c := &conn{id: 1, c: &recConn{discard: true}}
		sharedFleet(b, s, c, members)
		var batch insertBatch
		if _, err := batch.parse("s 5 N(10.5,4,25) | 6 N(11,3,30) | 7 N(12,5,9) | 8 N(9,2,40)", true); err != nil {
			b.Fatal(err)
		}
		results, err := s.engine.IngestBatch("s", batch.rows, nil)
		if err != nil {
			b.Fatal(err)
		}
		reply := fmt.Sprintf("OK inserted tuples=4 results=%d", 4*members)
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
