package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// fanoutConn is a raw protocol connection with request/response helpers.
type fanoutConn struct {
	c  net.Conn
	r  *bufio.Scanner
	w  *bufio.Writer
	id int
}

func dialFanout(t *testing.T, addr string, id int) *fanoutConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(120 * time.Second))
	sc := bufio.NewScanner(nc)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &fanoutConn{c: nc, r: sc, w: bufio.NewWriter(nc), id: id}
}

// roundTrip sends one request and collects lines until the OK/ERR reply,
// returning any DATA lines seen on the way (same-conn DATA precede OK).
func (fc *fanoutConn) roundTrip(t *testing.T, req string) []string {
	t.Helper()
	if _, err := fc.w.WriteString(req + "\n"); err != nil {
		t.Fatalf("conn %d: send %q: %v", fc.id, req, err)
	}
	if err := fc.w.Flush(); err != nil {
		t.Fatalf("conn %d: flush %q: %v", fc.id, req, err)
	}
	var data []string
	for fc.r.Scan() {
		line := fc.r.Text()
		if strings.HasPrefix(line, "OK") {
			return data
		}
		if strings.HasPrefix(line, "ERR ") {
			t.Fatalf("conn %d: %q: %s", fc.id, req, line)
		}
		data = append(data, line)
	}
	t.Fatalf("conn %d: EOF waiting for reply to %q: %v", fc.id, req, fc.r.Err())
	return nil
}

// dataMean extracts fields.a.mean from a "DATA q1 {...}" line.
func dataMean(t *testing.T, line string) float64 {
	t.Helper()
	if !strings.HasPrefix(line, "DATA q1 ") {
		t.Fatalf("unexpected line %q", line)
	}
	var payload struct {
		Fields map[string]struct {
			Mean float64 `json:"mean"`
		} `json:"fields"`
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal([]byte(line[len("DATA q1 "):]), &payload); err != nil {
		t.Fatalf("bad DATA payload %q: %v", line, err)
	}
	return payload.Fields["a"].Mean
}

// TestFanoutAliasing pushes 10k+ distinct tuples through the render-once
// path with 8 concurrent subscribers plus the owner and verifies EVERY
// value on every connection: shared frames must never alias, reorder, or
// drop a result. Run under -race this also proves the refcounted frame
// hand-off is race-free.
func TestFanoutAliasing(t *testing.T) {
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyNone})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Outbox big enough that no subscriber is dropped as slow while the
	// test is still wiring itself up.
	srv.SetOptions(Options{OutboxLines: 20_000})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	const (
		total   = 10_240
		chunk   = 256
		numSubs = 8
	)
	owner := dialFanout(t, addr.String(), -1)
	owner.roundTrip(t, "STREAM s val")
	owner.roundTrip(t, "QUERY q1 SELECT AVG(val) AS a FROM s WINDOW 1 ROWS")

	subs := make([]*fanoutConn, numSubs)
	for i := range subs {
		subs[i] = dialFanout(t, addr.String(), i)
		subs[i].roundTrip(t, "SUBSCRIBE q1")
	}

	// Each subscriber drains its connection concurrently with the inserts,
	// recording the means it observes in order.
	type subResult struct {
		id    int
		means []float64
		err   error
	}
	done := make(chan subResult, numSubs)
	for _, sub := range subs {
		go func(sub *fanoutConn) {
			res := subResult{id: sub.id, means: make([]float64, 0, total)}
			for len(res.means) < total && sub.r.Scan() {
				line := sub.r.Text()
				if !strings.HasPrefix(line, "DATA q1 ") {
					res.err = fmt.Errorf("conn %d: unexpected line %q", sub.id, line)
					break
				}
				var payload struct {
					Fields map[string]struct {
						Mean float64 `json:"mean"`
					} `json:"fields"`
				}
				if err := json.Unmarshal([]byte(line[len("DATA q1 "):]), &payload); err != nil {
					res.err = fmt.Errorf("conn %d: bad payload %q: %v", sub.id, line, err)
					break
				}
				res.means = append(res.means, payload.Fields["a"].Mean)
			}
			if res.err == nil && len(res.means) < total {
				res.err = fmt.Errorf("conn %d: stream ended after %d lines: %v", sub.id, len(res.means), sub.r.Err())
			}
			done <- res
		}(sub)
	}

	// The owner inserts every value and — as query owner — receives each
	// DATA line synchronously before the batch's OK.
	next := 0.0
	for lo := 0; lo < total; lo += chunk {
		parts := make([]string, 0, chunk)
		for v := lo; v < lo+chunk; v++ {
			parts = append(parts, fmt.Sprintf("%d", v))
		}
		data := owner.roundTrip(t, "INSERTBATCH s "+strings.Join(parts, " | "))
		if len(data) != chunk {
			t.Fatalf("owner: batch at %d yielded %d DATA lines, want %d", lo, len(data), chunk)
		}
		for _, line := range data {
			if got := dataMean(t, line); got != next {
				t.Fatalf("owner: mean = %v, want %v", got, next)
			}
			next++
		}
	}

	for i := 0; i < numSubs; i++ {
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		for j, got := range res.means {
			if want := float64(j); got != want {
				t.Fatalf("subscriber %d: value %d = %v, want %v", res.id, j, got, want)
			}
		}
	}

	// Close the raw conns before the deferred srv.Close: Close waits for
	// the server-side handlers, which otherwise idle until IdleTimeout.
	owner.c.Close()
	for _, sub := range subs {
		sub.c.Close()
	}
}
