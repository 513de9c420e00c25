package server

import "testing"

// BenchmarkFanout16 measures the serving-path cost of delivering one query
// result to 16 subscribers: one strconv render into a pooled frame, then 16
// copies of the same bytes, each staged into its connection's write batch
// and sent. The connections discard, so only render + copy cost is
// measured.
func BenchmarkFanout16(b *testing.B) {
	r := renderTestResults(b)[0]
	const subs = 16
	sinks := make([]*conn, subs)
	for i := range sinks {
		sinks[i] = &conn{id: uint64(i), c: &recConn{discard: true}}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := newFrame()
		var err error
		if f.buf, err = appendDataFrame(f.buf, "q1", r, nil); err != nil {
			b.Fatal(err)
		}
		f.refs.Store(subs)
		for _, c := range sinks {
			if !c.queueFrame(f) {
				b.Fatal("write failed")
			}
		}
	}
}
