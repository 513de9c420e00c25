package server

import "time"

// Options tunes the serving path's robustness limits. The zero value keeps
// every protection at its default; Normalize fills those in. All fields are
// transport-level: none of them changes query results, only how misbehaving
// or overloaded connections are handled.
type Options struct {
	// IdleTimeout closes a connection that sends no complete command for
	// that long (default 5m; negative disables). It bounds how long a dead
	// peer can pin a connection slot.
	IdleTimeout time.Duration
	// WriteTimeout bounds one socket write to a client — a reply, a
	// command's DATA lines with its reply, or one outbox drain (default 30s;
	// negative disables). A client that stops reading cannot block a
	// handler forever.
	WriteTimeout time.Duration
	// MaxConns caps concurrently open client connections (default 1024;
	// negative means unlimited). Connections over the cap receive one ERR
	// line and are closed — admission control, not silent drops.
	MaxConns int
	// OutboxLines bounds the per-connection queue of DATA lines pushed by
	// OTHER connections' inserts (default 4096, also for a negative
	// value). A subscriber that cannot keep up is disconnected when its
	// outbox overflows, so one slow client never blocks ingest. Delivery to
	// the inserting connection itself stays synchronous (DATA precedes the
	// OK reply on the same connection).
	OutboxLines int
	// DrainTimeout is how long Shutdown waits for in-flight connections to
	// finish before force-closing them (default 5s; negative closes them
	// immediately).
	DrainTimeout time.Duration
	// ReadOnly rejects state-changing commands (STREAM, QUERY, INSERT,
	// INSERTBATCH, CLOSE, SHED <level>) so the server can serve as a
	// replication follower: its state mutates only through ApplyReplicated.
	// Read traffic (STATS, METRICS, EXPLAIN, ATTACH, SUBSCRIBE) still
	// works. Flip at runtime with SetReadOnly (failover promotion).
	ReadOnly bool
	// Shed enables the accuracy-aware overload controller (see shed.go).
	Shed ShedConfig
}

const (
	defaultIdleTimeout  = 5 * time.Minute
	defaultWriteTimeout = 30 * time.Second
	defaultMaxConns     = 1024
	defaultOutboxLines  = 4096
	defaultDrainTimeout = 5 * time.Second
)

// Normalize fills defaults: zero means "default", negative means
// "disabled" for the fields that support disabling.
func (o Options) Normalize() Options {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = defaultIdleTimeout
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = defaultWriteTimeout
	}
	if o.MaxConns == 0 {
		o.MaxConns = defaultMaxConns
	}
	if o.OutboxLines <= 0 {
		o.OutboxLines = defaultOutboxLines
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = defaultDrainTimeout
	}
	o.Shed = o.Shed.normalize()
	return o
}

// SetOptions replaces the server's robustness options. Call before Serve.
func (s *Server) SetOptions(o Options) {
	s.opts = o.Normalize()
	s.readOnly.Store(o.ReadOnly)
}
