package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/server"
	"repro/internal/wal"
)

// ErrResyncRequired is the terminal follower error: the primary offered a
// snapshot OLDER than this follower's state, so neither fast-forwarding
// onto it nor replaying forward from it can reconcile the histories. The
// operator restarts the follower with a fresh engine (it then accepts the
// snapshot and catches up).
var ErrResyncRequired = errors.New("cluster: follower has diverged past the primary's wal horizon; restart with a fresh engine to resync")

// ErrStalePrimary is the terminal follower error for epoch fencing: the
// node being followed announced (or implied) an epoch below ours, so it
// lost a failover it has not caught up with. Following it would re-apply
// superseded history.
var ErrStalePrimary = errors.New("cluster: primary is at a stale epoch")

// RejoinError is the terminal follower error a fenced rejoiner receives:
// the primary found our WAL suffix diverged past an epoch change. The
// rejoin driver truncates the local WAL after SafeLSN, drops newer
// checkpoints, re-recovers, and follows again (see Rejoin).
type RejoinError struct {
	SafeLSN uint64 // last epoch-consistent LSN; everything after it is diverged
	Epoch   uint64 // the primary's current epoch
}

func (e *RejoinError) Error() string {
	return fmt.Sprintf("cluster: wal suffix diverged past epoch change: truncate after lsn %d and rejoin at epoch %d", e.SafeLSN, e.Epoch)
}

// FollowOptions tunes the replica-side replication loop. Zero values mean
// defaults.
type FollowOptions struct {
	// DialTimeout bounds each connect to the primary (default 5s).
	DialTimeout time.Duration
	// RetryBase and RetryMax shape reconnect backoff (defaults 50ms, 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// ReadTimeout is the max silence tolerated from the primary before
	// reconnecting (default 5s; heartbeats arrive every ~100ms).
	ReadTimeout time.Duration
}

func (o FollowOptions) normalize() FollowOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 5 * time.Second
	}
	return o
}

// Follower connects a read-only server to a primary's ShipServer and
// applies the shipped WAL stream through Server.ApplyReplicated. The
// server keeps serving ATTACH/SUBSCRIBE/STATS/METRICS traffic while
// records apply; FailoverManager promotes it under a new epoch.
type Follower struct {
	srv     *server.Server
	primary string
	logger  *log.Logger
	opts    FollowOptions

	lastApplied atomic.Uint64
	primaryLSN  atomic.Uint64
	lastContact atomic.Int64 // unix nanos of the last frame (or dial) from the primary

	mu      sync.Mutex
	nc      net.Conn
	closed  bool
	termErr error
	done    chan struct{}
	started bool
}

// NewFollower wires a follower for a server running with Options.ReadOnly.
// The server must be fresh (no streams, no queries) unless it recovered
// from its own data dir at the LSN the primary still retains.
func NewFollower(srv *server.Server, primaryAddr string, logger *log.Logger, opts FollowOptions) *Follower {
	f := &Follower{
		srv:     srv,
		primary: primaryAddr,
		logger:  logger,
		opts:    opts.normalize(),
		done:    make(chan struct{}),
	}
	srv.SetReplLagFn(func() int64 {
		frontier, applied := f.primaryLSN.Load(), f.lastApplied.Load()
		if frontier > applied {
			return int64(frontier - applied)
		}
		return 0
	})
	return f
}

// SetLastApplied seeds the replication cursor, for a follower that
// recovered state locally before connecting. Call before Start.
func (f *Follower) SetLastApplied(lsn uint64) { f.lastApplied.Store(lsn) }

// Target returns the address the replication loop currently dials.
func (f *Follower) Target() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// Retarget points the replication loop at a different primary (the failover
// manager calls it when a higher-ranked peer won the promotion race). The
// live connection, if any, is closed so the next dial goes to the new
// address; the replication cursor carries over — both nodes share the LSN
// space, so the handshake resumes exactly where the old stream stopped.
func (f *Follower) Retarget(addr string) {
	f.mu.Lock()
	if f.primary == addr {
		f.mu.Unlock()
		return
	}
	f.primary = addr
	nc := f.nc
	f.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// LastApplied returns the LSN of the last record applied locally.
func (f *Follower) LastApplied() uint64 { return f.lastApplied.Load() }

// LastContact returns when the primary was last heard from (a frame
// arrived or a dial succeeded); zero time before the first contact. The
// failure detector reads this to count missed heartbeat windows.
func (f *Follower) LastContact() time.Time {
	n := f.lastContact.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

func (f *Follower) touchContact() { f.lastContact.Store(time.Now().UnixNano()) }

// Err returns the terminal replication error, if the loop stopped on one.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.termErr
}

// Start launches the replication loop: connect, sync, apply, reconnect on
// transport errors, stop on terminal ones (divergence, fencing, apply
// failure).
func (f *Follower) Start() {
	f.mu.Lock()
	if f.started || f.closed {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	go f.run()
}

// WaitCaughtUp blocks until the follower has applied through at least lsn,
// or the timeout passes. Used by tests and read-your-writes callers.
func (f *Follower) WaitCaughtUp(lsn uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.lastApplied.Load() >= lsn {
			return true
		}
		select {
		case <-f.done:
			return f.lastApplied.Load() >= lsn
		case <-time.After(time.Millisecond):
		}
	}
	return f.lastApplied.Load() >= lsn
}

// Close stops replication, leaving the server read-only.
func (f *Follower) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return
	}
	f.closed = true
	nc := f.nc
	started := f.started
	if !started {
		close(f.done)
	}
	f.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	if started {
		<-f.done
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.logger != nil {
		f.logger.Printf(format, args...)
	}
}

// isTerminal reports whether the replication loop must stop rather than
// reconnect: divergence, epoch fencing, or a partial local apply.
func isTerminal(err error) bool {
	var re *RejoinError
	return errors.Is(err, ErrResyncRequired) || errors.Is(err, ErrStalePrimary) ||
		errors.As(err, &re) || isApplyError(err)
}

func (f *Follower) run() {
	defer close(f.done)
	attempt := 0
	for {
		f.mu.Lock()
		stopped := f.closed
		f.mu.Unlock()
		if stopped {
			return
		}
		progressed, err := f.followOnce()
		if err != nil {
			if isTerminal(err) {
				f.mu.Lock()
				f.termErr = err
				f.mu.Unlock()
				f.logf("follower: terminal: %v", err)
				return
			}
			f.mu.Lock()
			stopped = f.closed
			f.mu.Unlock()
			if stopped {
				return
			}
			f.logf("follower: %v (reconnecting)", err)
		}
		if progressed {
			attempt = 0
		}
		attempt++
		d := f.opts.RetryBase << uint(min(attempt-1, 10))
		if d > f.opts.RetryMax {
			d = f.opts.RetryMax
		}
		time.Sleep(d)
	}
}

// applyError marks a failure inside ApplyReplicated or RestoreSnapshot:
// state may have partially changed, so reconnect-and-replay is unsafe.
type applyError struct{ err error }

func (e *applyError) Error() string { return e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

func isApplyError(err error) bool {
	var ae *applyError
	return errors.As(err, &ae)
}

// followOnce runs one connection's lifetime: handshake, then apply
// messages until the link breaks. Returns whether any record was applied
// (resets reconnect backoff).
func (f *Follower) followOnce() (progressed bool, err error) {
	nc, err := net.DialTimeout("tcp", f.Target(), f.opts.DialTimeout)
	if err != nil {
		return false, err
	}
	f.touchContact()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		nc.Close()
		return false, nil
	}
	f.nc = nc
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		if f.nc == nc {
			f.nc = nil
		}
		f.mu.Unlock()
		nc.Close()
	}()

	nc.SetWriteDeadline(time.Now().Add(f.opts.DialTimeout))
	if _, err := nc.Write(frame{verb: "SYNC", lsn: f.lastApplied.Load(), epoch: f.srv.Epoch()}.append(nil)); err != nil {
		return false, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		nc.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		fr, err := readFrame(br)
		if err != nil {
			return progressed, err
		}
		f.touchContact()
		// A primary below our epoch lost a failover and has not rejoined
		// yet, so its stream is superseded history. Frames at our epoch or
		// above are fine — during a rejoin the new primary streams at a
		// higher epoch and the journaled RecEpoch record advances ours at
		// exactly the right LSN.
		if cur := f.srv.Epoch(); fr.epoch < cur {
			return progressed, fmt.Errorf("%w: frame epoch %d below local %d", ErrStalePrimary, fr.epoch, cur)
		}
		switch fr.verb {
		case "REC":
			if err := f.handleRec(fr); err != nil {
				return progressed, err
			}
			progressed = true
		case "HB":
			f.observeFrontier(fr.lsn, int64(fr.n))
		case "SNAP":
			if err := f.handleSnap(fr); err != nil {
				return progressed, err
			}
			progressed = true
		case "FENCE":
			// The node we synced to fenced ITSELF because our epoch is
			// higher: it is a stale ex-primary. Stop following it.
			return progressed, fmt.Errorf("%w: it fenced itself on our epoch %d", ErrStalePrimary, fr.epoch)
		case "TRUNC":
			// Everything we applied after the safe LSN belongs to a
			// fenced-off history. Fence the server now (writes start failing
			// with the stale-epoch sentinel); the terminal RejoinError tells
			// the rejoin driver where to cut.
			f.srv.Fence(fr.epoch)
			f.logf("follower: diverged at lsn %d; primary epoch %d keeps only ..%d", f.lastApplied.Load(), fr.epoch, fr.lsn)
			return progressed, &RejoinError{SafeLSN: fr.lsn, Epoch: fr.epoch}
		default:
			return progressed, fmt.Errorf("cluster: unexpected %s frame from the primary", fr.verb)
		}
	}
}

func (f *Follower) handleSnap(fr frame) error {
	last := f.lastApplied.Load()
	if last != 0 && fr.lsn < last {
		// The offered snapshot is OLDER than our state: the primary lost a
		// suffix we hold (lax fsync + crash). Installing it would roll us
		// back and re-applying the stream would diverge. Operator decision.
		return ErrResyncRequired
	}
	snap, err := checkpoint.Decode(fr.payload)
	if err == nil && snap.LSN != fr.lsn {
		// The primary names the LSN from the checkpoint's file name; bytes
		// that say otherwise are not the checkpoint it meant to ship.
		err = fmt.Errorf("snapshot covers lsn %d, frame says %d", snap.LSN, fr.lsn)
	}
	if err != nil {
		return &applyError{fmt.Errorf("cluster: decoding shipped snapshot: %w", err)}
	}
	if last == 0 {
		err = f.srv.RestoreSnapshot(snap)
	} else {
		// Fast-forward: the primary truncated its WAL past our position (it
		// may do this repeatedly while crash-looping), so the records between
		// last and lsn are gone — but the snapshot at lsn ⊇ our state at
		// last by the determinism invariant, so replacing wholesale skips
		// nothing.
		err = f.srv.ReinstallSnapshot(snap)
	}
	if err != nil {
		return &applyError{err}
	}
	f.lastApplied.Store(fr.lsn)
	f.observeFrontier(fr.lsn, time.Now().UnixNano())
	f.logf("follower: installed snapshot lsn=%d epoch=%d (%d bytes, fast-forward=%v)", fr.lsn, fr.epoch, len(fr.payload), last != 0)
	return nil
}

func (f *Follower) handleRec(fr frame) error {
	last := f.lastApplied.Load()
	if fr.lsn <= last {
		// Possible after a reconnect that re-ships the tail; applying
		// twice would diverge, skipping is always safe (same stream).
		return nil
	}
	if fr.lsn != last+1 {
		return fmt.Errorf("cluster: lsn gap: applied %d, received %d", last, fr.lsn)
	}
	if err := f.srv.ApplyReplicated(wal.Record{LSN: fr.lsn, Type: wal.RecordType(fr.typ), Payload: fr.payload}); err != nil {
		return &applyError{err}
	}
	f.lastApplied.Store(fr.lsn)
	f.observeFrontier(fr.lsn, int64(fr.n))
	return nil
}

// observeFrontier folds one observation of the primary's shippable
// frontier into the lag gauges. lag_records is the primary's frontier
// minus what we applied; lag_seconds is 0 when caught up, else the age of
// that observation (the clocks are the primary's send time vs our receive
// time, so cross-host skew shifts it — it is a gauge for dashboards, not
// an ordering primitive).
func (f *Follower) observeFrontier(frontier uint64, shipNano int64) {
	for {
		cur := f.primaryLSN.Load()
		if frontier <= cur {
			frontier = cur
			break
		}
		if f.primaryLSN.CompareAndSwap(cur, frontier) {
			break
		}
	}
	applied := f.lastApplied.Load()
	var lagRec int64
	if frontier > applied {
		lagRec = int64(frontier - applied)
	}
	gLagRecords.Set(lagRec)
	if lagRec == 0 {
		gLagSeconds.Set(0)
	} else {
		gLagSeconds.Set(time.Since(time.Unix(0, shipNano)).Seconds())
	}
}
