package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/server"
	"repro/internal/wal"
)

// testHookShipSnapshot, when set, runs after a snapshot has been selected
// for shipping but before the WAL suffix is re-pinned — the window a
// concurrent checkpoint+truncate would race into.
var testHookShipSnapshot func()

// ShipOptions tunes the primary-side replication server. Zero values mean
// defaults.
type ShipOptions struct {
	// Heartbeat is the idle HB interval (default 100ms). Heartbeats carry
	// the primary's last durable LSN so followers measure lag while idle.
	Heartbeat time.Duration
	// Poll is how often the tail is re-checked when caught up (default 2ms).
	Poll time.Duration
	// WriteTimeout bounds one flush to a follower (default 10s). A stalled
	// follower is disconnected, never allowed to pin WAL retention forever.
	WriteTimeout time.Duration
}

func (o ShipOptions) normalize() ShipOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 100 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Millisecond
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	return o
}

// ShipServer streams a primary's WAL to followers in the frames that frame
// documents. It reads the same CRC-framed segment files the server writes
// — shipping is a pure observer of the durability layer and never blocks
// the ingest path. The server handle supplies the epoch used to stamp and
// fence frames.
type ShipServer struct {
	// Listener accepts, tracks and stops the follower connections.
	*server.Listener

	srv    *server.Server
	log    *wal.Log
	ck     *checkpoint.Manager
	logger *log.Logger
	opts   ShipOptions
}

// NewShipServer wires a replication server to a durable server: it ships
// the server's WAL and checkpoints, stamps frames with the server's
// current epoch, and registers its live connection count as the server's
// follower count for ROLE.
func NewShipServer(srv *server.Server, logger *log.Logger, opts ShipOptions) (*ShipServer, error) {
	if srv == nil || srv.WAL() == nil {
		return nil, errors.New("cluster: replication requires a durable server (nil WAL)")
	}
	ss := &ShipServer{
		srv:    srv,
		log:    srv.WAL(),
		ck:     srv.Checkpoints(),
		logger: logger,
		opts:   opts.normalize(),
	}
	ss.Listener = server.NewListener(ss.serveConn, logger)
	srv.SetFollowerCountFn(ss.Live)
	return ss, nil
}

// Listen binds the replication listener and returns the bound address. The
// address is also advertised through the server's ROLE reply (repl= field)
// so peers probing this node can learn where to follow it.
func (ss *ShipServer) Listen(addr string) (net.Addr, error) {
	a, err := ss.Listener.Listen(addr)
	if err == nil {
		bound := a.String()
		ss.srv.SetReplAddrFn(func() string { return bound })
	}
	return a, err
}

// Serve accepts follower connections until Close. Each follower gets its
// own shipping goroutine and WAL reader.
func (ss *ShipServer) Serve() error { return ss.Listener.Serve(nil) }

// Close stops the listener and disconnects every follower.
func (ss *ShipServer) Close() error { return ss.Stop(0) }

func (ss *ShipServer) logf(format string, args ...any) {
	if ss.logger != nil {
		ss.logger.Printf(format, args...)
	}
}

// shipLimit is the highest LSN safe to ship. Under FsyncAlways a follower
// must never hold a record the primary could lose in a crash, so shipping
// waits for the group-commit frontier; laxer policies accept that the
// whole suffix is volatile and ship the appended frontier.
func (ss *ShipServer) shipLimit() uint64 {
	if ss.log.Policy() == wal.FsyncAlways {
		return ss.log.SyncedLSN()
	}
	return ss.log.LastLSN()
}

// position resolves where to start shipping for a follower that has
// applied lastApplied: either the WAL still holds lastApplied+1 (ship the
// suffix directly) or the follower is behind the truncation horizon and
// needs the latest complete checkpoint plus the suffix after it.
//
// The pin-then-verify loop closes the race with a concurrent checkpoint:
// the suffix is pinned BEFORE checking it still exists. If the check fails
// the pin moved nothing (TruncateThrough had already won), so the pin is
// dropped, the latest complete snapshot is picked, and the loop re-pins at
// snapshotLSN+1 — a checkpoint that lands between those two steps just
// sends the loop around again with a newer snapshot. The returned pin is
// held (and advanced) for the life of the shipping connection, bounding
// WAL retention to the follower's unshipped suffix.
func (ss *ShipServer) position(lastApplied uint64) (snapRaw []byte, from uint64, pin *wal.Pin, err error) {
	from = lastApplied + 1
	for attempt := 0; attempt < 16; attempt++ {
		pin = ss.log.Pin(from)
		oldest, err := ss.log.OldestLSN()
		if err != nil {
			pin.Release()
			return nil, 0, nil, err
		}
		if from >= oldest {
			return snapRaw, from, pin, nil
		}
		pin.Release()
		if ss.ck == nil {
			return nil, 0, nil, fmt.Errorf("cluster: follower at lsn %d predates wal (oldest %d) and no checkpoints exist", lastApplied, oldest)
		}
		raw, snapLSN, err := ss.ck.LatestRaw()
		if err != nil {
			return nil, 0, nil, err
		}
		if raw == nil {
			return nil, 0, nil, fmt.Errorf("cluster: follower at lsn %d predates wal (oldest %d) and no checkpoint is available", lastApplied, oldest)
		}
		if testHookShipSnapshot != nil {
			testHookShipSnapshot()
		}
		snapRaw, from = raw, snapLSN+1
	}
	return nil, 0, nil, errors.New("cluster: could not pin a consistent snapshot+suffix (checkpoints outpacing handshake)")
}

func (ss *ShipServer) serveConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 4<<10)
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := server.ReadLine(br, 256)
	if err != nil {
		ss.logf("repl: handshake read: %v", err)
		return
	}
	reply := func(b []byte) {
		nc.SetWriteDeadline(time.Now().Add(ss.opts.WriteTimeout))
		nc.Write(b)
	}
	hs, err := parseFrame(line)
	if err != nil || hs.verb != "SYNC" || hs.epoch == 0 {
		// Any bad handshake fails loudly. An epochless SYNC is a pre-epoch
		// connector that cannot parse the current frames: streaming to it
		// would have it misread the epoch field of REC frames as the
		// record type.
		ss.logf("repl: rejecting handshake %q", line)
		reply([]byte("ERR SYNC requires <lastAppliedLSN> <epoch>; upgrade the follower\n"))
		return
	}
	lastApplied, reqEpoch := hs.lsn, hs.epoch
	cur := ss.srv.Epoch()
	if reqEpoch > cur {
		// The connector has seen a higher epoch than ours: a newer primary
		// was promoted while this node thought it was current. Fence this
		// node (its dispatch starts rejecting writes with the stale-epoch
		// sentinel) and tell the connector why it gets no stream.
		ss.srv.Fence(reqEpoch)
		ss.logf("repl: fenced by follower@%d at epoch %d (local %d)", lastApplied, reqEpoch, cur)
		reply(frame{verb: "FENCE", epoch: reqEpoch}.append(nil))
		return
	}
	if reqEpoch < cur {
		// Stale-epoch rejoiner. Anything it applied past the first LSN of a
		// newer epoch is diverged history that never happened here; it must
		// truncate that suffix before it can follow.
		if safe := ss.srv.SafeJoinLSN(reqEpoch, lastApplied); lastApplied > safe {
			ss.logf("repl: rejoiner@%d epoch %d diverged; truncate to %d (epoch %d)", lastApplied, reqEpoch, safe, cur)
			reply(frame{verb: "TRUNC", lsn: safe, epoch: cur}.append(nil))
			return
		}
	}

	// After the handshake the follower sends nothing; a read returning
	// means it hung up (or the link died) — close so blocked writes fail
	// fast instead of waiting out TCP buffers. Started BEFORE position()
	// and the snapshot send: a peer that dies mid-snapshot must unblock
	// the write below, or this goroutine would hold its WAL pin forever.
	// gone closes once that read returns, and also when Close closes nc.
	nc.SetReadDeadline(time.Time{})
	gone := make(chan struct{})
	go func() {
		var b [1]byte
		nc.Read(b[:])
		nc.Close()
		close(gone)
	}()

	snapRaw, from, pin, err := ss.position(lastApplied)
	if err != nil {
		ss.logf("repl: position follower@%d: %v", lastApplied, err)
		return
	}
	defer pin.Release()

	gFollowers.Inc()
	defer gFollowers.Dec()

	bw := bufio.NewWriterSize(nc, 64<<10)
	flush := func() error {
		nc.SetWriteDeadline(time.Now().Add(ss.opts.WriteTimeout))
		return bw.Flush()
	}
	if snapRaw != nil {
		// The snapshot body can exceed the buffer, so this Write flushes to
		// the socket internally — it needs the same deadline as flush() or a
		// dead peer pins WAL retention until the TCP stack gives up.
		nc.SetWriteDeadline(time.Now().Add(ss.opts.WriteTimeout))
		bw.Write(frame{verb: "SNAP", lsn: from - 1, epoch: ss.srv.Epoch(), payload: snapRaw}.append(nil))
		if err := flush(); err != nil {
			ss.logf("repl: follower@%d: snapshot send: %v", lastApplied, err)
			return
		}
	}

	rd := ss.log.NewReader(from)
	defer rd.Close()
	lastHB := time.Time{}
	pending := 0
	for {
		select {
		case <-gone:
			return
		default:
		}
		if rd.NextLSN() <= ss.shipLimit() {
			rec, ok, err := rd.Next()
			if err != nil {
				// Includes wal.ErrTruncated: retention raced past this
				// reader (possible only if the pin was released by Close).
				// The follower reconnects and re-handshakes.
				ss.logf("repl: follower stream: %v", err)
				flush()
				return
			}
			if ok {
				fr := frame{verb: "REC", lsn: rec.LSN, epoch: ss.srv.Epoch(), typ: uint64(rec.Type), n: uint64(time.Now().UnixNano()), payload: rec.Payload}
				bw.Write(fr.append(bw.AvailableBuffer()))
				pin.Advance(rec.LSN + 1)
				pending++
				if pending >= 64 {
					if err := flush(); err != nil {
						ss.logf("repl: follower write: %v", err)
						return
					}
					pending = 0
				}
				continue
			}
		}
		// Caught up to the shippable frontier (or gated on durability):
		// drain the buffer, heartbeat if due, then poll.
		if err := flush(); err != nil {
			ss.logf("repl: follower write: %v", err)
			return
		}
		pending = 0
		if time.Since(lastHB) >= ss.opts.Heartbeat {
			fr := frame{verb: "HB", lsn: ss.shipLimit(), epoch: ss.srv.Epoch(), n: uint64(time.Now().UnixNano())}
			bw.Write(fr.append(bw.AvailableBuffer()))
			if err := flush(); err != nil {
				ss.logf("repl: follower write: %v", err)
				return
			}
			lastHB = time.Now()
		}
		time.Sleep(ss.opts.Poll)
	}
}
