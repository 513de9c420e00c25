package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/wal"
)

// Server hosts one Engine over TCP. Safe for concurrent connections.
//
// Ingest is sharded: INSERT/INSERTBATCH go through core.Engine.IngestBatch,
// which serializes per stream-shard group rather than globally, so clients
// feeding different streams push tuples in parallel. Control-plane commands
// (STREAM, QUERY, CLOSE, disconnect-driven drops, checkpoints) quiesce the
// engine with Engine.Exclusive and then take s.mu, which guards the query
// registry and connection table. Lock order is therefore
// Exclusive (ctl + all shards) → s.mu; no path takes engine locks while
// holding s.mu.
//
// With durability enabled (see NewDurable), every state-changing command is
// journaled: ingest journals inside the engine's sequencing critical
// section (the commit hook of IngestBatch), so WAL order provably equals
// engine sequence order even with concurrent writers, and replay is
// deterministic. Under fsync=always the WAL uses group commit — the append
// happens inside the critical section, the fsync wait outside it — so
// concurrent committers and whole batches share fsyncs.
type Server struct {
	// Listener accepts, tracks and stops the client connections.
	*Listener

	engine *core.Engine
	logger *log.Logger

	opts  Options      // robustness limits; set before Serve
	dedup *dedupWindow // idempotent-request window (see dedup.go)
	// admitted counts the connections MaxConns admission let in and whose
	// handlers still run; a refused connection never holds a slot.
	admitted atomic.Int64
	// registering counts live @reqid ingests journaled but not yet in
	// dedup; maybeCheckpoint waits them out under Exclusive, when no
	// commit can add one.
	registering sync.WaitGroup

	// readOnly rejects state-changing commands (replication follower mode);
	// atomic so failover promotion can flip it while connections are live.
	readOnly atomic.Bool
	// replScratch is the delivery scratch of replay and ApplyReplicated,
	// which run on one goroutine: recovery, then the follower apply loop.
	replScratch deliveryScratch

	mu       sync.Mutex
	queries  map[string]*registeredQuery
	nextConn uint64
	shed     *shedController

	// Durability (nil wal pointer disables). wal is an atomic pointer so
	// the ingest commit hook — which runs under engine shard locks, never
	// s.mu — can journal without inverting the lock order. sinceCk counts
	// WAL records since the last checkpoint; ck/ckEvery are set once
	// before Serve and read-only afterwards.
	wal     atomic.Pointer[wal.Log]
	ck      *checkpoint.Manager
	ckEvery int
	sinceCk atomic.Int64

	// Replication-epoch (fencing) state; see epoch.go. epoch is the
	// current term (1 until a failover bumps it); fenced marks a deposed
	// primary that must reject writes with the stale-epoch sentinel.
	// epochMu guards epochHist, the known term transitions.
	epoch     atomic.Uint64
	fenced    atomic.Bool
	epochMu   sync.Mutex
	epochHist []checkpoint.EpochBound

	// roleFollowers/roleLag are injected by the cluster layer so ROLE can
	// report follower count and replication lag without the server package
	// importing cluster state.
	roleFollowers atomic.Pointer[func() int]
	roleLag       atomic.Pointer[func() int64]
	roleRepl      atomic.Pointer[func() string]
}

type registeredQuery struct {
	id      string
	sqlText string
	query   *core.Query
	// owner is the connection results are delivered to; nil for detached
	// queries (recovered after a crash, until a client ATTACHes).
	owner *conn
	// subs are additional connections that SUBSCRIBEd to this query's DATA
	// lines; every recipient shares the single rendered body. Invariant:
	// owner never appears in subs (ATTACH and SUBSCRIBE maintain it).
	subs []*conn
}

// New returns a server over the given engine. logger may be nil (logging
// disabled). Durability is off; use NewDurable to honor Config.DataDir.
func New(engine *core.Engine, logger *log.Logger) (*Server, error) {
	if engine == nil {
		return nil, errors.New("server: nil engine")
	}
	opts := Options{}.Normalize()
	srv := &Server{
		engine:  engine,
		logger:  logger,
		opts:    opts,
		dedup:   newDedupWindow(dedupWindowSize),
		queries: make(map[string]*registeredQuery),
	}
	srv.Listener = NewListener(srv.handle, logger)
	srv.epoch.Store(1)
	return srv, nil
}

// Serve starts the shed controller and accepts connections until Close,
// Shutdown or Detach; call it after Listen.
func (s *Server) Serve() error {
	s.startShed()
	return s.Listener.Serve(nil)
}

// Close stops accepting, waits for every connection to finish, and
// finalizes durability (final checkpoint, WAL sync+close).
func (s *Server) Close() error {
	return errors.Join(s.stop(-1), s.finalizeDurable())
}

// Shutdown is the graceful stop used on SIGINT/SIGTERM: connections get up
// to Options.DrainTimeout to finish and disconnect on their own before
// they are force-closed (an in-flight command always finishes; command
// dispatch is synchronous). It then writes a final checkpoint and fsyncs
// and closes the WAL.
func (s *Server) Shutdown() error {
	return errors.Join(s.stop(max(s.opts.DrainTimeout, 0)), s.finalizeDurable())
}

// Detach stops the server WITHOUT the shutdown checkpoint: connections
// close at once, then the WAL is synced and closed as-is. The
// fenced-rejoin path needs this — a shutdown checkpoint here would capture
// the diverged suffix at the WAL tail and prune the records below it that
// re-recovery at the truncation point depends on. On-disk state is left
// exactly as the last durable append and checkpoint wrote it.
func (s *Server) Detach() error {
	err := s.stop(0)
	if w := s.wal.Swap(nil); w != nil {
		err = errors.Join(err, w.Sync(), w.Close())
	}
	return err
}

// stop is the serving half of every stop mode: the listener's Stop, then
// the shed controller.
func (s *Server) stop(drain time.Duration) error {
	err := s.Stop(drain)
	s.stopShed()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// conn is one client connection. Writes are serialized by wmu because the
// handler goroutine (command responses, same-connection DATA) and the
// outbox drainer (cross-conn DATA pushes) both write.
//
// Every write is a batch: lockWrite borrows a pooled buffer, stage copies
// lines into it, unlockWrite sends what is pending with one socket write.
// The one exception is a pipelined burst: while the handler has another
// whole request buffered (hold), its own replies stay staged in the open
// batch, and the burst's last reply, or any other writer's unlock, sends
// them all. Between batches and bursts the connection holds no write
// buffer, so an idle connection costs no buffer memory however many are
// open.
type conn struct {
	id           uint64
	c            net.Conn
	writeTimeout time.Duration

	wmu   sync.Mutex
	wb    *writeBuf // the open or held batch's buffer; nil between batches
	wdata uint64    // DATA lines staged since the last socket write
	werr  error     // the first failed socket write; nothing is written after it

	// hold keeps the handler's replies staged instead of sent; only the
	// handler goroutine reads or writes it (see handle).
	hold bool

	// outbox buffers DATA lines produced by OTHER connections' inserts; a
	// dedicated goroutine drains it so a slow subscriber never blocks the
	// inserting connection. It is made, with its drainer, the first time
	// the conn becomes a delivery target (ensureOutboxLocked), so nil means
	// "never a target yet". Every line handed to the outbox carries one
	// reference to its body, owned by the conn and released once its bytes
	// are staged (or on drop/drain).
	outbox     chan dataLine
	outboxStop chan struct{}
	outboxDone chan struct{}
	dead       atomic.Bool // outbox overflow or write failure; conn is being torn down

	// scratch is the handler-goroutine-local delivery scratch reused across
	// ingests, keeping the steady-state push path allocation-free.
	scratch deliveryScratch
}

// writeBufSize is the capacity of one pooled write buffer: a batch of n
// bytes costs ⌈n/writeBufSize⌉ socket writes.
const writeBufSize = 64 << 10

type writeBuf struct{ b []byte }

var writeBufPool = sync.Pool{New: func() any {
	return &writeBuf{b: make([]byte, 0, writeBufSize)}
}}

// lockWrite opens a write batch, or reopens the one a burst holds; pair
// with unlockWrite (or, on the handler's own replies, unlockReply).
func (c *conn) lockWrite() {
	c.wmu.Lock()
	if c.wb == nil {
		c.wb = writeBufPool.Get().(*writeBuf)
	}
}

// stage copies ps into the open batch, sending the buffer whenever it is
// full and more remains. After an error the batch is broken: the caller
// stops staging and unlocks. (A function because methods cannot be
// generic; bodies are []byte, replies strings.)
func stage[T string | []byte](c *conn, ps ...T) error {
	for _, p := range ps {
		for {
			b := c.wb.b
			n := copy(b[len(b):cap(b)], p)
			c.wb.b = b[:len(b)+n]
			if p = p[n:]; len(p) == 0 {
				break
			}
			if err := c.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// stageData stages "DATA <id> " + body (newline included) and counts the
// line toward asdb_server_data_lines_total once the write carrying its last
// byte succeeds. A line that overflows the buffer goes through stage, which
// fills the buffers exactly as one contiguous line would.
func (c *conn) stageData(id string, body []byte) error {
	if b := c.wb.b; len(b)+len("DATA  ")+len(id)+len(body) <= cap(b) {
		c.wb.b = append(append(append(append(b, "DATA "...), id...), ' '), body...)
	} else if err := stage(c, "DATA ", id, " "); err != nil {
		return err
	} else if err := stage(c, body); err != nil {
		return err
	}
	c.wdata++
	return nil
}

// flushLocked sends the pending bytes with one socket write under one
// deadline. After a failed write it drops them and returns that failure
// again: a stream cut mid-line must not continue. Caller holds wmu.
func (c *conn) flushLocked() error {
	if c.werr != nil {
		c.wb.b, c.wdata = c.wb.b[:0], 0
		return c.werr
	}
	if len(c.wb.b) == 0 {
		return nil
	}
	if c.writeTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, err := c.c.Write(c.wb.b)
	c.wb.b = c.wb.b[:0]
	if err == nil {
		mDataLines.Add(c.wdata)
	} else {
		c.werr = err
	}
	c.wdata = 0
	return err
}

// stageLine stages a reply line and its newline.
func (c *conn) stageLine(line string) error {
	return stage(c, line, "\n")
}

// unlockWrite sends what the batch still holds, a burst's held replies
// included, and closes it.
func (c *conn) unlockWrite() error {
	err := c.flushLocked()
	writeBufPool.Put(c.wb)
	c.wb = nil
	c.wmu.Unlock()
	return err
}

// unlockReply ends a batch of the handler's own replies. Inside a pipelined
// burst (hold) the batch stays open and staged for the burst's later
// replies; otherwise, or after a failed write, it is unlockWrite.
func (c *conn) unlockReply() error {
	if c.hold && c.werr == nil {
		c.wmu.Unlock()
		return nil
	}
	return c.unlockWrite()
}

// flushHeld sends what a burst left staged and returns the buffer; the
// handler calls it before a read that may block, before a checkpoint and
// when it exits.
func (c *conn) flushHeld() error {
	c.wmu.Lock()
	if c.wb == nil { // nothing held, or another writer sent it
		c.wmu.Unlock()
		return nil
	}
	return c.unlockWrite()
}

func (c *conn) writeLine(line string) error {
	c.lockWrite()
	err := c.stageLine(line)
	if ferr := c.unlockReply(); err == nil {
		err = ferr
	}
	return err
}

// queueFrame hands one cross-connection DATA line to the conn's outbox,
// consuming the caller's reference to its body on every path (queued or
// dropped). The call never blocks: overflow means the subscriber is not
// keeping up, and the conn is disconnected rather than letting its backlog
// stall ingest. Reports whether the line was queued.
func (c *conn) queueFrame(l dataLine) bool {
	if c.dead.Load() {
		l.body.release()
		return false
	}
	select {
	case c.outbox <- l:
		return true
	default:
		l.body.release()
		if c.dead.CompareAndSwap(false, true) {
			mSlowClientDrops.Inc()
			c.c.Close() // unblocks the handler's read loop; cleanup follows
		}
		return false
	}
}

// outboxLoop drains queued DATA lines until the handler exits. It keeps
// consuming (and releasing) after the conn is dead so queueFrame never
// wedges.
func (c *conn) outboxLoop() {
	defer close(c.outboxDone)
	for {
		select {
		case l := <-c.outbox:
			c.drainOutbox(l)
		case <-c.outboxStop:
			return
		}
	}
}

// drainOutbox sends l and every line queued behind it at wake-up as one
// batch — a burst that piled up while the drainer was busy leaves in one
// socket write. The first write failure marks the conn dead and closes it;
// the rest of the batch is released unwritten. The receives cannot block:
// this goroutine is the outbox's only consumer while it runs.
func (c *conn) drainOutbox(l dataLine) {
	if c.dead.Load() {
		l.body.release()
		return
	}
	c.lockWrite()
	var err error
	for queued := len(c.outbox); ; queued-- {
		if err == nil {
			err = c.stageData(l.id, l.body.buf)
		}
		l.body.release()
		if queued == 0 {
			break
		}
		l = <-c.outbox
	}
	if ferr := c.unlockWrite(); err == nil {
		err = ferr
	}
	if err != nil && c.dead.CompareAndSwap(false, true) {
		c.c.Close()
	}
}

// ensureOutboxLocked gives c its outbox of lines entries
// (Options.OutboxLines) and its drainer the first time it becomes a
// delivery target (query owner, ATTACH, SUBSCRIBE). Caller holds s.mu and
// registers c as a target under the same hold, so every delivery snapshot
// that sees c also sees its outbox.
func (c *conn) ensureOutboxLocked(lines int) {
	if c.outbox != nil {
		return
	}
	c.outbox = make(chan dataLine, lines)
	c.outboxStop = make(chan struct{})
	c.outboxDone = make(chan struct{})
	go c.outboxLoop()
}

// stopOutbox stops c's drainer, if c ever had one.
func (c *conn) stopOutbox() {
	if c.outbox == nil {
		return
	}
	close(c.outboxStop)
	<-c.outboxDone
	// Release any lines still queued; late queueFrame racers that slip in
	// after this drain keep their own reference accounting (the body is
	// simply never pooled — garbage collected instead), so no body is
	// ever double-released.
	for {
		select {
		case l := <-c.outbox:
			l.body.release()
		default:
			return
		}
	}
}

func (s *Server) handle(nc net.Conn) {
	// The close runs last, so a client that sees EOF after a panic also
	// sees it counted. The recovery runs after the registry/outbox cleanup
	// defers below, which still execute while a panic unwinds, and only
	// this connection dies — the server keeps serving everyone else.
	defer nc.Close()
	defer func() {
		if r := recover(); r != nil {
			mConnPanics.Inc()
			s.logf("conn from %s: panic: %v\n%s", nc.RemoteAddr(), r, debug.Stack())
		}
	}()
	if limit := s.opts.MaxConns; limit > 0 {
		if s.admitted.Add(1) > int64(limit) {
			s.admitted.Add(-1)
			mConnsRejected.Inc()
			s.logf("conn from %s: rejected, at connection limit (%d)", nc.RemoteAddr(), limit)
			if s.opts.WriteTimeout > 0 {
				nc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
			}
			fmt.Fprintf(nc, "ERR server at connection limit (%d)\n", limit)
			return
		}
		defer s.admitted.Add(-1)
	}
	s.mu.Lock()
	c := s.newConnLocked(nc)
	s.mu.Unlock()
	mConnsOpened.Inc()
	gConnsActive.Inc()
	s.logf("conn %d: open from %s", c.id, nc.RemoteAddr())
	defer func() {
		// Replies a burst still holds leave on every exit — QUIT, EOF, a
		// read error, a panic — before the conn's queries close. A failed
		// write was already reported.
		_ = c.flushHeld()
		s.dropConnQueries(c)
		c.stopOutbox()
		gConnsActive.Dec()
	}()
	r := bufio.NewReaderSize(nc, 64*1024)
	var readErr error
	for {
		if c.hold && !lineBuffered(r) {
			// The burst ended on a line that sent nothing (a blank one):
			// send what it holds before a read that may block.
			c.hold = false
			if err := c.flushHeld(); err != nil {
				s.logf("conn %d: write: %v", c.id, err)
				return
			}
		}
		if s.opts.IdleTimeout > 0 {
			nc.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		raw, err := ReadLine(r, maxLineBytes)
		if err != nil {
			readErr = err
			break
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		// While the client has pipelined another whole request, this
		// command's replies stay staged: the burst's last command sends
		// them all in one write (⌈bytes/writeBufSize⌉ when larger).
		c.hold = lineBuffered(r)
		quit, err := s.dispatch(c, line)
		if err != nil {
			mCmdErrs.Inc()
			if werr := c.writeLine("ERR " + err.Error()); werr != nil {
				s.logf("conn %d: write: %v", c.id, werr)
				return
			}
			continue
		}
		if quit {
			return
		}
	}
	if readErr != nil && readErr != io.EOF {
		var ne net.Error
		if errors.As(readErr, &ne) && ne.Timeout() {
			mIdleTimeouts.Inc()
			s.logf("conn %d: idle timeout", c.id)
			return
		}
		s.logf("conn %d: read: %v", c.id, readErr)
		return
	}
	s.logf("conn %d: closed", c.id)
}

// newConnLocked makes the conn for nc. It gets no outbox until it becomes
// a delivery target (ensureOutboxLocked). Caller holds s.mu.
func (s *Server) newConnLocked(nc net.Conn) *conn {
	s.nextConn++
	return &conn{id: s.nextConn, c: nc, writeTimeout: s.opts.WriteTimeout}
}

// lineBuffered reports whether r already holds a whole line: the client
// pipelined another request behind the one being read.
func lineBuffered(r *bufio.Reader) bool {
	b, _ := r.Peek(r.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// testHookDispatch, when non-nil, runs at the top of every dispatch; the
// chaos suite uses it to inject handler panics.
var testHookDispatch func(verb string)

// dispatch executes one request line; returns quit=true for QUIT.
func (s *Server) dispatch(c *conn, line string) (bool, error) {
	cmd := line
	rest := ""
	if idx := strings.IndexByte(line, ' '); idx >= 0 {
		cmd, rest = line[:idx], strings.TrimSpace(line[idx+1:])
	}
	verb := strings.ToUpper(cmd)
	if testHookDispatch != nil {
		testHookDispatch(verb)
	}
	countCmd(verb)
	defer timeCmd(time.Now())
	switch verb {
	case "STREAM", "QUERY", "INSERT", "INSERTBATCH", "CLOSE":
		if err := s.writeRefusal(); err != nil {
			return false, err
		}
	}
	switch verb {
	case "PING":
		return false, c.writeLine("OK pong")
	case "QUIT":
		_ = c.writeLine("OK bye")
		return true, nil
	case "STREAM":
		return false, s.applyCommand(c, wal.RecStream, rest)
	case "QUERY":
		return false, s.cmdQuery(c, rest)
	case "INSERT":
		return false, s.cmdIngest(c, rest, wal.RecInsert)
	case "INSERTBATCH":
		return false, s.cmdIngest(c, rest, wal.RecInsertBatch)
	case "STATS":
		return false, s.cmdStats(c, rest)
	case "METRICS":
		return false, s.cmdMetrics(c, rest)
	case "EXPLAIN":
		return false, s.cmdExplain(c, rest)
	case "ATTACH":
		return false, s.cmdAttach(c, rest)
	case "SUBSCRIBE":
		return false, s.cmdSubscribe(c, rest)
	case "CLOSE":
		return false, s.applyCommand(c, wal.RecClose, rest)
	case "SHED":
		return false, s.cmdShed(c, rest)
	case "ROLE":
		return false, s.cmdRole(c, rest)
	}
	return false, fmt.Errorf("unknown command %q", cmd)
}

// applyStream registers a stream from a STREAM command payload. Caller
// holds Exclusive.
func (s *Server) applyStream(rest string) (string, error) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", errors.New("usage: STREAM <name> <col>[:dist] ...")
	}
	schema, err := ParseStreamDef(fields[0], fields[1:])
	if err != nil {
		return "", err
	}
	if err := s.engine.RegisterStream(schema); err != nil {
		return "", err
	}
	s.logf("stream %s registered (%d columns)", schema.Name, schema.Arity())
	return schema.Name, nil
}

// applyCommand runs a live control command from c through apply, waits
// for its record to be durable, and replies.
func (s *Server) applyCommand(c *conn, typ wal.RecordType, payload string) error {
	reply, lsn, err := s.apply(nil, c, typ, payload, 0)
	if err == nil {
		err = s.waitDurable(lsn)
	}
	if err != nil {
		return err
	}
	s.checkpointFor(c)
	return c.writeLine(reply)
}

// checkpointFor runs a due checkpoint (maybeCheckpoint) for a command of
// c. What c's burst holds is sent first, so no result waits behind the
// snapshot. A failed send sticks to c, and the command's reply reports it.
func (s *Server) checkpointFor(c *conn) {
	if s.checkpointDue() {
		_ = c.flushHeld()
	}
	s.maybeCheckpoint()
}

// applyQueryLocked compiles, binds, and registers a query. The
// duplicate-id check runs before compilation so a rejected registration
// consumes no engine sequence number (WAL replay must see identical seq
// evolution). Caller holds s.mu plus Exclusive.
func (s *Server) applyQueryLocked(id, sqlText string, owner *conn) error {
	if id == "" || sqlText == "" {
		return errors.New("usage: QUERY <id> <sql>")
	}
	if _, dup := s.queries[id]; dup {
		return fmt.Errorf("query id %q already in use", id)
	}
	q, err := s.engine.Compile(sqlText)
	if err != nil {
		return err
	}
	if err := s.engine.Bind(id, q); err != nil {
		return err
	}
	if owner != nil {
		owner.ensureOutboxLocked(s.opts.OutboxLines)
	}
	s.queries[id] = &registeredQuery{id: id, sqlText: sqlText, query: q, owner: owner}
	s.logf("query %s registered: %s", id, sqlText)
	return nil
}

func (s *Server) cmdQuery(c *conn, rest string) error {
	idx := strings.IndexByte(rest, ' ')
	if idx < 0 {
		return errors.New("usage: QUERY <id> <sql>")
	}
	id, sqlText := rest[:idx], strings.TrimSpace(rest[idx+1:])
	// The line protocol sets no Tuple.Time, so a time window would never
	// evict; a materialized window above MaxWindowRows could take more
	// memory than the process has. Both are refused here, before Compile
	// allocates the window or consumes an engine sequence number; replay and
	// replication apply journaled statements unchecked, so WALs written
	// before these checks still recover.
	if stmt, err := sql.Parse(sqlText); err == nil && stmt.Window != nil {
		if stmt.Window.Seconds > 0 {
			return errors.New("WINDOW n SECONDS " + NoEventTimes + "; use WINDOW n ROWS")
		}
		if stmt.Window.Rows > core.MaxWindowRows && stmt.Backend != "SKETCH" {
			return fmt.Errorf("WINDOW %d ROWS is above the bound of %d rows; use fewer rows or BACKEND SKETCH",
				stmt.Window.Rows, core.MaxWindowRows)
		}
	}
	return s.applyCommand(c, wal.RecQuery, id+" "+sqlText)
}

// NoEventTimes is why the protocol refuses what needs a tuple's event time
// (a time window, asdb's LOAD ... TIME): INSERT sets no Tuple.Time.
const NoEventTimes = "needs event times, which the line protocol does not carry"

// dataLine is one DATA line, staged as "DATA <id> " + the shared body.
type dataLine struct {
	id   string
	body *frame
}

// delivery is one planned DATA line bound for a connection. A delivery to
// another connection owns one reference to the body; one to the inserting
// connection owns none (the command holds one, see emission.own).
type delivery struct {
	target *conn
	dataLine
}

// deliveryScratch is one command's parsed ingest and planned deliveries,
// reused per goroutine.
type deliveryScratch struct {
	batch   insertBatch
	items   []delivery
	ems     []emission // every body rendered for the command
	bodies  bodyCache
	targets []*conn // recipients of every result set, flattened
	ends    []int   // targets[ends[i-1]:ends[i]] receive results[i]
}

// planDeliveries routes engine results to their recipients and renders the
// DATA bodies into sc; writing happens later in sendDeliveries, after the
// WAL fsync. from is the inserting connection (nil on replay and follower
// apply). s.mu is held only to snapshot each query's owner and
// subscribers, so a large fan-out's renders do not stall SUBSCRIBE, CLOSE
// or other inserters. Every result is rendered, whether or not it has a
// recipient, so the reply never depends on who listens. Each emission's
// body is rendered once (bodyCache); a body that cannot be rendered is
// remembered, and each member gets its own push error. emitted counts the
// results rendered; the error aggregates per-query push failures, sorted
// for deterministic messages.
func (s *Server) planDeliveries(sc *deliveryScratch, from *conn, results []core.QueryResults) (int, error) {
	targets, ends := sc.targets[:0], sc.ends[:0]
	s.mu.Lock()
	for _, qr := range results {
		if rq := s.queries[qr.ID]; rq != nil {
			if rq.owner != nil {
				targets = append(targets, rq.owner)
			}
			targets = append(targets, rq.subs...)
		}
		ends = append(ends, len(targets))
	}
	s.mu.Unlock()

	var (
		items    = sc.items[:0]
		ems      = sc.ems[:0]
		pushErrs []string
		emitted  int
	)
	if sc.bodies == nil {
		sc.bodies = make(bodyCache)
	}
	lo := 0
	for i, qr := range results {
		if qr.Err != nil {
			pushErrs = append(pushErrs, fmt.Sprintf("query %s: %v", qr.ID, qr.Err))
		}
		to := targets[lo:ends[i]]
		lo = ends[i]
		for _, r := range qr.Results {
			k, seen := sc.bodies[r.Tuple]
			if !seen || ems[k].tupleProb != r.TupleProb || ems[k].unsure != r.Unsure {
				k = len(ems)
				ems = append(ems, renderBody(r))
				if !seen {
					sc.bodies[r.Tuple] = k
				}
			}
			e := &ems[k]
			if e.err != nil {
				pushErrs = append(pushErrs, fmt.Sprintf("query %s: %v", qr.ID, e.err))
				continue
			}
			for _, t := range to {
				if t != from {
					e.refs++
				} else if !e.own {
					e.own = true
					e.refs++
				}
				items = append(items, delivery{t, dataLine{qr.ID, e.body}})
			}
			emitted++
		}
	}
	for _, e := range ems {
		switch {
		case e.body == nil:
		case e.refs == 0: // rendered for the reply alone
			e.body.release()
		case e.refs != 1: // newFrame set 1
			e.body.refs.Store(e.refs)
		}
	}
	// Drop pointers so the scratch doesn't pin closed connections or tuples.
	clear(targets)
	clear(sc.bodies)
	sc.items, sc.ems, sc.targets, sc.ends = items, ems, targets, ends
	if len(pushErrs) > 0 {
		sort.Strings(pushErrs)
		return emitted, errors.New(strings.Join(pushErrs, "; "))
	}
	return emitted, nil
}

// sendDeliveries writes the planned DATA lines and, when reply is
// non-empty, the command's reply line. Lines for other connections go
// first, through their bounded outboxes, so one slow subscriber cannot
// stall this insert and no write lock of ours is held while theirs are
// taken. Lines for the inserting connection and the reply then leave as one
// write batch, DATA strictly before the reply — a protocol invariant
// same-connection clients rely on — and the command's references drop
// after it; after a write to from fails nothing more is staged and the
// error is returned. from is nil on the follower apply path, which has no
// inserting connection.
func (s *Server) sendDeliveries(from *conn, sc *deliveryScratch, reply string) error {
	var dropped []*conn
	for _, it := range sc.items {
		if it.target != from && !it.target.queueFrame(it.dataLine) && !slices.Contains(dropped, it.target) {
			dropped = append(dropped, it.target)
			s.logf("deliver: conn %d dropped (slow or closed)", it.target.id)
		}
	}
	var err error
	if from != nil {
		from.lockWrite()
		for _, it := range sc.items {
			if it.target == from {
				if err = from.stageData(it.id, it.body.buf); err != nil {
					break
				}
			}
		}
		if reply != "" && err == nil {
			err = from.stageLine(reply)
		}
		if ferr := from.unlockReply(); err == nil {
			err = ferr
		}
	}
	sc.releaseOwn()
	return err
}

// dropDeliveries releases every reference of planned lines that will never
// be written.
func dropDeliveries(from *conn, sc *deliveryScratch) {
	for _, it := range sc.items {
		if it.target != from {
			it.body.release()
		}
	}
	sc.releaseOwn()
}

// releaseOwn drops the command's references to its bodies, and every body
// pointer, so the scratch doesn't pin released frames until the next ingest.
func (sc *deliveryScratch) releaseOwn() {
	for _, e := range sc.ems {
		if e.own {
			e.body.release()
		}
	}
	clear(sc.ems)
	clear(sc.items)
}

// ingestReply formats an ingest's reply line, which apply computes on
// every path: replay must reproduce it bit-identically to rebuild the
// idempotency window (see dedup.go).
func ingestReply(batch bool, tuples, emitted int, pushErr error) string {
	if pushErr != nil {
		return "ERR " + pushErr.Error()
	}
	buf := make([]byte, 0, 48)
	if batch {
		buf = append(buf, "OK inserted tuples="...)
		buf = strconv.AppendInt(buf, int64(tuples), 10)
		buf = append(buf, " results="...)
	} else {
		buf = append(buf, "OK inserted results="...)
	}
	buf = strconv.AppendInt(buf, int64(emitted), 10)
	return string(buf)
}

// cmdIngest executes INSERT/INSERTBATCH. A trailing "@<id>" token makes the
// request idempotent: the dedup window replays the original reply instead
// of re-applying. The token is journaled inside the payload, and
// checkpoints carry the window, so a retry that straddles a crash still
// applies exactly once. The attempt holds a claim on the id until it
// returns, so a concurrent attempt of the same id waits and replays.
func (s *Server) cmdIngest(c *conn, rest string, typ wal.RecordType) error {
	if _, reqID := SplitReqID(rest); reqID != "" {
		if e, ok := s.dedup.claim(reqID); ok {
			mDedupHits.Inc()
			// The original attempt applied and journaled; re-wait its
			// durability (it may have failed between append and fsync) and
			// replay its reply without touching the engine.
			if err := s.waitDurable(e.lsn); err != nil {
				return err
			}
			if msg, ok := strings.CutPrefix(e.reply, "ERR "); ok {
				return errors.New(msg)
			}
			return c.writeLine(e.reply)
		}
		defer s.dedup.release(reqID)
	}
	reply, lsn, err := s.apply(&c.scratch, c, typ, rest, 0)
	if err != nil {
		return err
	}
	// Durable before externalized: the fsync wait runs outside the shard
	// locks (group commit), and no DATA byte goes out before it.
	if err := s.waitDurable(lsn); err != nil {
		dropDeliveries(c, &c.scratch)
		return err
	}
	if !s.checkpointDue() {
		err = s.sendDeliveries(c, &c.scratch, reply)
	} else {
		// A checkpoint is about to quiesce the engine: DATA leaves first so
		// results are not held behind the snapshot; the reply follows it.
		err = s.sendDeliveries(c, &c.scratch, "")
		s.checkpointFor(c)
		if err == nil {
			err = c.writeLine(reply)
		}
	}
	if err == nil && strings.HasPrefix(reply, "ERR ") {
		// The ERR reply went out here, after the DATA lines, so handle never
		// sees this error.
		mCmdErrs.Inc()
	}
	return err
}

// cmdShed reports (bare SHED) or forces (SHED <level>) the degrade level.
// Forced transitions go through the same journaled path the controller
// uses, so operator intervention is as crash-safe as automatic shedding.
func (s *Server) cmdShed(c *conn, rest string) error {
	arg := strings.TrimSpace(rest)
	if arg == "" {
		return c.writeLine(fmt.Sprintf("OK shed level=%d", s.engine.DegradeLevel()))
	}
	if err := s.writeRefusal(); err != nil {
		return err
	}
	level, err := strconv.Atoi(arg)
	if err != nil {
		return fmt.Errorf("usage: SHED [level 0..%d]", core.MaxDegradeLevel)
	}
	if level < 0 || level > core.MaxDegradeLevel {
		return fmt.Errorf("shed level %d out of range 0..%d", level, core.MaxDegradeLevel)
	}
	if err := s.setShedLevel(level); err != nil {
		return err
	}
	return c.writeLine(fmt.Sprintf("OK shed level=%d", level))
}

func (s *Server) cmdStats(c *conn, rest string) error {
	id := strings.TrimSpace(rest)
	s.mu.Lock()
	rq, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown query %q", id)
	}
	st := rq.query.Stats()
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return c.writeLine("OK " + string(payload))
}

// cmdExplain returns the compiled plan as a quoted string (the protocol is
// line-based; clients unquote to recover the multi-line plan). The plan text
// is deterministic; `EXPLAIN <id> TIMING` instead returns per-stage
// wall-clock counters (enabling collection on first use), which are an
// operator tool and inherently non-deterministic.
func (s *Server) cmdExplain(c *conn, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 || (len(fields) == 2 && !strings.EqualFold(fields[1], "TIMING")) {
		return errors.New("usage: EXPLAIN <id> [TIMING]")
	}
	id := fields[0]
	s.mu.Lock()
	rq, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown query %q", id)
	}
	if len(fields) == 2 {
		return c.writeLine("OK " + strconv.Quote(rq.query.ExplainTiming()))
	}
	return c.writeLine("OK " + strconv.Quote(rq.query.Explain()))
}

// cmdAttach takes delivery ownership of a detached query — one recovered
// from a checkpoint/WAL after a crash, whose results would otherwise be
// computed but not delivered. Ownership is transport state, not engine
// state, so ATTACH is not journaled.
func (s *Server) cmdAttach(c *conn, rest string) error {
	id := strings.TrimSpace(rest)
	s.mu.Lock()
	rq, ok := s.queries[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("unknown query %q", id)
	}
	if rq.owner != nil && rq.owner != c {
		s.mu.Unlock()
		return fmt.Errorf("query %q is owned by another connection", id)
	}
	c.ensureOutboxLocked(s.opts.OutboxLines)
	rq.owner = c
	// A connection is either owner or subscriber, never both; promote.
	for i, sub := range rq.subs {
		if sub == c {
			rq.subs = append(rq.subs[:i], rq.subs[i+1:]...)
			break
		}
	}
	return s.replyUnlock(c, "OK attached "+id)
}

// cmdSubscribe adds this connection as an additional DATA recipient for a
// query it does not own. Like ATTACH, subscription is transport state and
// is not journaled. Subscribing is idempotent, and a no-op for the owner.
func (s *Server) cmdSubscribe(c *conn, rest string) error {
	id := strings.TrimSpace(rest)
	s.mu.Lock()
	rq, ok := s.queries[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("unknown query %q", id)
	}
	if rq.owner != c && !slices.Contains(rq.subs, c) {
		c.ensureOutboxLocked(s.opts.OutboxLines)
		rq.subs = append(rq.subs, c)
	}
	return s.replyUnlock(c, "OK subscribed "+id)
}

// replyUnlock takes c's write lock while the caller still holds s.mu,
// releases s.mu, and only then stages and sends the reply. Holding c.wmu
// first, the reply precedes any DATA line the change made under s.mu sends
// to c, since those need c.wmu; staged after, even a stage that finds a
// burst's held buffer full and sends it, a client that stops reading stalls
// its own handler and not every command that takes s.mu (lock order
// s.mu → c.wmu, DESIGN §11.2).
func (s *Server) replyUnlock(c *conn, line string) error {
	c.lockWrite()
	s.mu.Unlock()
	err := c.stageLine(line)
	if ferr := c.unlockReply(); err == nil {
		err = ferr
	}
	return err
}

// applyCloseLocked drops a query from the registry and its engine shards.
// Caller holds s.mu plus Exclusive.
func (s *Server) applyCloseLocked(id string) error {
	if _, ok := s.queries[id]; !ok {
		return fmt.Errorf("unknown query %q", id)
	}
	delete(s.queries, id)
	s.engine.Unbind(id)
	return nil
}

// dropConnQueries unsubscribes a departing connection and removes the
// queries it owns, journaling each removal so WAL replay reproduces the
// registry exactly. A read-only or fenced node only detaches them: its
// registry follows the primary's WAL (or awaits a rejoin that truncates
// its own), so it must neither unbind a query nor append a record.
func (s *Server) dropConnQueries(c *conn) {
	if s.readOnly.Load() || s.fenced.Load() {
		s.mu.Lock()
		s.unlinkConnLocked(c)
		s.mu.Unlock()
		return
	}
	release := s.engine.Exclusive()
	s.mu.Lock()
	dropped := s.unlinkConnLocked(c)
	var lastLSN uint64
	for _, id := range dropped {
		_, lsn, err := s.applyLocked(nil, wal.RecClose, id, 0)
		if err != nil {
			s.logf("close %s: %v", id, err)
			continue
		}
		lastLSN = lsn
	}
	s.mu.Unlock()
	release()
	if err := s.waitDurable(lastLSN); err != nil {
		s.logf("drop queries: %v", err)
	}
	if len(dropped) > 0 {
		s.maybeCheckpoint()
	}
}

// unlinkConnLocked removes c from every subscriber list and detaches the
// queries c owns, returning their ids sorted. Caller holds s.mu.
func (s *Server) unlinkConnLocked(c *conn) []string {
	var owned []string
	for id, rq := range s.queries {
		if i := slices.Index(rq.subs, c); i >= 0 {
			rq.subs = slices.Delete(rq.subs, i, i+1)
		}
		if rq.owner == c {
			rq.owner = nil
			owned = append(owned, id)
		}
	}
	sort.Strings(owned)
	return owned
}

// DetachedQueries returns the sorted ids of the queries no connection
// owns: after recovery, every query, until a client ATTACHes it.
func (s *Server) DetachedQueries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for id, rq := range s.queries {
		if rq.owner == nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
