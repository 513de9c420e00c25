package server

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"
)

// Listener is the accept loop, connection set and stop path that asdbd's
// client listener, the router and the WAL ship listener share. Every
// connection, accepted by Serve or handed to ServeConn, runs the handler on
// its own goroutine and counts as live until the handler returns.
type Listener struct {
	handle func(net.Conn)
	logger *log.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewListener returns a Listener that serves each connection with handle.
// logger may be nil.
func NewListener(handle func(net.Conn), logger *log.Logger) *Listener {
	return &Listener{handle: handle, logger: logger, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:7433"; port 0 picks a free port) and
// returns the bound address.
func (l *Listener) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts on ln (nil: the listener Listen bound) until Stop, then
// returns nil. A failed Accept (file descriptors run out, a peer aborts
// mid-handshake) is retried after a backoff that doubles from 5 ms up to
// 1 s; only a listener closed by someone other than Stop ends the loop
// with an error.
func (l *Listener) Serve(ln net.Listener) error {
	l.mu.Lock()
	if ln != nil {
		l.ln = ln
	}
	ln, closed := l.ln, l.closed
	l.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	if closed {
		ln.Close()
		return nil
	}
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err == nil {
			backoff = 0
			l.ServeConn(nc)
			continue
		}
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return nil
		}
		if errors.Is(err, net.ErrClosed) {
			return err
		}
		backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
		mAcceptRetries.Inc()
		l.logf("accept: %v; retrying in %v", err, backoff)
		time.Sleep(backoff)
	}
}

// ServeConn serves one established connection as Serve serves an accepted
// one; asdb serves its embedded session this way, over net.Pipe. After
// Stop it closes nc instead.
func (l *Listener) ServeConn(nc net.Conn) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		nc.Close()
		return
	}
	l.conns[nc] = struct{}{}
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		l.handle(nc)
		l.mu.Lock()
		delete(l.conns, nc)
		l.mu.Unlock()
	}()
}

// Live reports how many connections are being served.
func (l *Listener) Live() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Stop closes the listener, gives the live connections up to drain to end
// on their own (a negative drain waits as long as they take), closes the
// rest, and returns once every handler has. A later Stop closes only what
// is still open.
func (l *Listener) Stop(drain time.Duration) error {
	l.mu.Lock()
	ln, first := l.ln, !l.closed
	l.closed = true
	l.mu.Unlock()
	var err error
	if first && ln != nil {
		err = ln.Close()
	}
	if drain < 0 {
		l.wg.Wait()
		return err
	}
	if drain > 0 {
		done := make(chan struct{})
		go func() {
			l.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
			return err
		case <-time.After(drain):
			l.logf("stop: drain timeout after %v, closing %d connections", drain, l.Live())
		}
	}
	l.mu.Lock()
	for nc := range l.conns {
		nc.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *Listener) logf(format string, args ...any) {
	if l.logger != nil {
		l.logger.Printf(format, args...)
	}
}
