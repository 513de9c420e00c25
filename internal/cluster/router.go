package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Router routes commands across a cluster as a thin proxy: one listener
// speaking the asdb line protocol, forwarding each command to the node
// that owns it. DATA lines from backends are relayed to the client
// byte-for-byte — the router never re-renders results, so replica frames
// stay identical to primary frames end to end. Ingest lines carrying a
// client-minted @reqid are retried across failover targets; bare ingest
// lines get one attempt (the router must not invent idempotency the
// client didn't ask for).
type Router struct {
	// Listener accepts, tracks and stops the client connections.
	*server.Listener

	topo  *topo
	opts  server.DialOptions
	retry *server.Retrier // backoff shared by every session's walks
}

// NewRouter builds a proxy over the given nodes. opts shape every backend
// connection (dial and exchange timeouts) and the failover walk of
// @reqid-tagged ingest: Retries extra attempts, jittered backoff between
// them so the retry storms of many sessions chasing one failover spread
// out instead of synchronizing.
func NewRouter(nodes []Node, opts server.DialOptions) (*Router, error) {
	t, err := newTopo(nodes)
	if err != nil {
		return nil, err
	}
	o := opts.Normalize()
	rt := &Router{topo: t, opts: o, retry: server.NewRetrier(o)}
	rt.Listener = server.NewListener(rt.serveConn, nil)
	return rt, nil
}

// Serve accepts client connections until Close.
func (rt *Router) Serve() error { return rt.Listener.Serve(nil) }

// Close stops the listener and disconnects every client (and their
// backends).
func (rt *Router) Close() error { return rt.Stop(0) }

// rsession is one proxied client connection plus its cached backends.
type rsession struct {
	rt       *Router
	nc       net.Conn
	cmu      sync.Mutex // serializes all writes to the client
	cw       *bufio.Writer
	backends map[string]*server.Conn
}

func (rt *Router) serveConn(nc net.Conn) {
	s := &rsession{
		rt:       rt,
		nc:       nc,
		cw:       bufio.NewWriterSize(nc, 64<<10),
		backends: make(map[string]*server.Conn),
	}
	defer func() {
		for _, b := range s.backends {
			b.Close()
		}
		nc.Close()
	}()
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		nc.SetReadDeadline(time.Now().Add(5 * time.Minute))
		line, err := server.ReadLine(br, maxShipLine)
		if err != nil {
			return
		}
		if line == "" {
			continue
		}
		if verbOf(line) == "QUIT" {
			s.writeClient("OK bye")
			return
		}
		reply, err := s.dispatch(line)
		if err != nil {
			reply = "ERR " + err.Error()
		}
		if !s.writeClient(reply) {
			return
		}
	}
}

func verbOf(line string) string {
	verb := line
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb = line[:i]
	}
	return strings.ToUpper(verb)
}

func firstField(rest string) string {
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		return rest[:i]
	}
	return rest
}

// writeClient sends one line to the client; false means the client is
// gone.
func (s *rsession) writeClient(line string) bool {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if _, err := s.cw.WriteString(line); err != nil {
		return false
	}
	if err := s.cw.WriteByte('\n'); err != nil {
		return false
	}
	return s.cw.Flush() == nil
}

// dispatch routes one command line and returns the upstream reply line.
func (s *rsession) dispatch(line string) (string, error) {
	verb := verbOf(line)
	rest := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		rest = strings.TrimSpace(line[i+1:])
	}
	t := s.rt.topo
	switch verb {
	case "PING":
		return "OK pong", nil
	case "STREAM":
		if rest == "" {
			return "", errors.New("usage: STREAM <name> <col>[:dist] ...")
		}
		node := t.registerStream(firstField(rest), rest)
		return s.backendDo(t.primaryAddr(node), line)
	case "QUERY":
		id := firstField(rest)
		sqlText := strings.TrimSpace(strings.TrimPrefix(rest, id))
		node, moves, err := t.placeQuery(id, sqlText)
		if err != nil {
			return "", err
		}
		rep, err := s.registerQuery(node, moves, line)
		if err != nil || !strings.HasPrefix(rep, "OK") {
			t.dropQuery(id) // the id stays placed only once a backend took it
		}
		return rep, err
	case "INSERT", "INSERTBATCH":
		node, ok := t.streamNode(firstField(rest))
		if !ok {
			return "", fmt.Errorf("unknown stream %q (register through this router first)", firstField(rest))
		}
		t.markDirty(firstField(rest))
		return s.ingestDispatch(node, line)
	case "STATS", "EXPLAIN", "ATTACH", "SUBSCRIBE":
		return s.backendDo(s.readAddrFor(rest), line)
	case "METRICS":
		if rest == "" {
			// Global metrics are per-process; node 0's stand in. Per-node
			// metrics are reachable by connecting to the node directly.
			return s.backendDo(t.readAddr(0), line)
		}
		return s.backendDo(s.readAddrFor(rest), line)
	case "CLOSE":
		node, ok := t.queryNode(firstField(rest))
		if !ok {
			return "", fmt.Errorf("unknown query %q", firstField(rest))
		}
		rep, err := s.backendDo(t.primaryAddr(node), line)
		if err == nil && strings.HasPrefix(rep, "OK") {
			t.dropQuery(firstField(rest))
		}
		return rep, err
	case "SHED":
		// Shedding is per-node; the router applies the command to every
		// primary so the cluster degrades uniformly.
		var last string
		for i := range t.nodes {
			rep, err := s.backendDo(t.primaryAddr(i), line)
			if err != nil {
				return "", err
			}
			if strings.HasPrefix(rep, "ERR ") {
				return rep, nil
			}
			last = rep
		}
		return last, nil
	default:
		return s.backendDo(t.primaryAddr(0), line)
	}
}

// registerQuery replays a placement's DDL moves on their target, then
// sends the QUERY line to the node's primary.
func (s *rsession) registerQuery(node int, moves []streamMove, line string) (string, error) {
	t := s.rt.topo
	for _, mv := range moves {
		if rep, err := s.backendDo(t.primaryAddr(mv.node), "STREAM "+mv.ddl); err != nil {
			return "", fmt.Errorf("re-homing stream %s: %w", mv.stream, err)
		} else if strings.HasPrefix(rep, "ERR ") {
			return "", fmt.Errorf("re-homing stream %s: %s", mv.stream, rep[4:])
		}
	}
	return s.backendDo(t.primaryAddr(node), line)
}

// readAddrFor picks the read address for a query-scoped command, falling
// back to node 0 for unknown ids (the backend's ERR is the real answer).
func (s *rsession) readAddrFor(rest string) string {
	t := s.rt.topo
	if node, ok := t.queryNode(firstField(rest)); ok {
		return t.readAddr(node)
	}
	return t.readAddr(0)
}

// ingestDispatch forwards an ingest line through the failover walk: the
// node's targets in turn when the line is idempotent (@reqid present), one
// attempt otherwise. A final ERR goes back to the client as the reply.
func (s *rsession) ingestDispatch(node int, line string) (string, error) {
	attempts := 1
	if _, id := server.SplitReqID(line); id != "" {
		attempts = s.rt.opts.Retries + 1
	}
	rep, err := walkFailover(s.rt.topo.failoverAddrs(node), attempts, s.rt.retry, func(addr string) (string, error) {
		rep, err := s.backendDo(addr, line)
		if msg, ok := strings.CutPrefix(rep, "ERR "); ok {
			return rep, server.ServerError(msg)
		}
		return rep, err
	})
	var se server.ServerError
	if errors.As(err, &se) {
		return rep, nil
	}
	return rep, err
}

// backendDo sends one line upstream on this session's connection to addr
// (dialed if needed) and returns the reply line. DATA lines arriving first
// are relayed to the client by the connection's reader, so the client
// still sees DATA before OK, exactly like a direct connection.
func (s *rsession) backendDo(addr string, line string) (string, error) {
	b, ok := s.backends[addr]
	if ok {
		select {
		case <-b.Done():
			ok = false
		default:
		}
	}
	if !ok {
		var err error
		if b, err = server.DialConn(addr, s.rt.opts, s.relay); err != nil {
			return "", err
		}
		s.backends[addr] = b
	}
	rep, err := b.Exchange(line)
	if err != nil {
		delete(s.backends, addr)
	}
	return rep, err
}

// relay forwards one upstream DATA line verbatim: bytes rendered upstream
// are the bytes the client sees. A client that cannot take it loses its
// session rather than a frame.
func (s *rsession) relay(line string) {
	if !s.writeClient(line) {
		s.nc.Close()
	}
}
