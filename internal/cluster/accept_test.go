package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
)

// flakyListener fails its first n Accepts with a transient error.
type flakyListener struct {
	net.Listener
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, errors.New("accept: resource temporarily unavailable")
	}
	return l.Listener.Accept()
}

// TestAcceptTransientEveryEndpoint fails the first three Accepts of
// asdbd's client listener, the router and the ship listener. Each must
// absorb them with its backoff (5+10+20 ms), count them, and then serve: a
// PING on the first two, a SYNC handshake on the third.
func TestAcceptTransientEveryEndpoint(t *testing.T) {
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyAnalytical, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewDurable(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rt, err := NewRouter([]Node{{Primary: "127.0.0.1:1"}}, server.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ship, err := NewShipServer(srv, nil, ShipOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()

	retries := metrics.Default.Counter("asdb_server_accept_retries_total", "")
	for _, ep := range []struct {
		name       string
		l          *server.Listener
		send, want string
	}{
		{"asdbd", srv.Listener, "PING", "OK pong"},
		{"router", rt.Listener, "PING", "OK pong"},
		{"ship", ship.Listener, "SYNC 0 1", "HB 0 1 "},
	} {
		t.Run(ep.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			before := retries.Value()
			go ep.l.Serve(&flakyListener{Listener: ln, fails: 3})
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			fmt.Fprintf(c, "%s\n", ep.send)
			line, err := bufio.NewReader(c).ReadString('\n')
			if err != nil || !strings.HasPrefix(line, ep.want) {
				t.Fatalf("%s: reply %q, %v; want %q...", ep.send, line, err, ep.want)
			}
			if got := retries.Value() - before; got != 3 {
				t.Fatalf("accept_retries delta = %d, want 3", got)
			}
		})
	}
}
