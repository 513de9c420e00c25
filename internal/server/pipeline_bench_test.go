package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// countConn counts the socket writes made on a served connection.
type countConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkPipelinedIngest drives the standing benchmark's commit-single
// request shape over a loopback TCP pair: one client keeps 8
// `INSERT … @reqid` requests in flight against a durable server
// (fsync=interval, a checkpoint every 1024 records), sending the next one
// as each reply arrives. One op is one request, DATA line and reply read;
// writes/req is the server's socket writes per request.
func BenchmarkPipelinedIngest(b *testing.B) {
	const depth = 8
	s := newTestServer(b, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1,
		DataDir: b.TempDir(), FsyncPolicy: "interval", CheckpointEvery: 1024})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var writes atomic.Int64
	go func() {
		if nc, err := ln.Accept(); err == nil {
			s.ServeConn(countConn{nc, &writes})
		}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	r := bufio.NewReaderSize(cc, 64<<10)
	send := func(line string) {
		if _, err := cc.Write([]byte(line + "\n")); err != nil {
			b.Fatal(err)
		}
	}
	// reply reads to the next OK/ERR line, skipping DATA.
	reply := func() string {
		for {
			line, err := ReadLine(r, maxLineBytes)
			if err != nil {
				b.Fatal(err)
			}
			if !strings.HasPrefix(line, "DATA ") {
				return line
			}
		}
	}
	for _, line := range []string{"STREAM s key v:dist", "QUERY q SELECT AVG(v) AS a FROM s WINDOW 8 ROWS"} {
		send(line)
		if got := reply(); !strings.HasPrefix(got, "OK") {
			b.Fatalf("%s: %s", line, got)
		}
	}
	insert := func(i int) {
		send(fmt.Sprintf("INSERT s %d N(%d,%d,%d) @w0:%d", i%1000, 40+i%15, 4+i%20, 3+i%48, i))
	}

	b.ResetTimer()
	w0 := writes.Load()
	sent := 0
	for ; sent < min(depth, b.N); sent++ {
		insert(sent)
	}
	for i := 0; i < b.N; i++ {
		if got := reply(); !strings.HasPrefix(got, "OK inserted") {
			b.Fatalf("request %d: %s", i, got)
		}
		if sent < b.N {
			insert(sent)
			sent++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load()-w0)/float64(b.N), "writes/req")
}
