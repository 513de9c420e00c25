package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// Data is one asynchronous query result delivered to a client.
type Data struct {
	QueryID string
	Result  ResultJSON
}

// ServerError is an ERR reply: the request reached the server and was
// rejected. It is never retried — only transport failures (broken or timed
// out connections) are, and only for idempotent operations.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// DialOptions tunes a client's fault handling; the cluster router takes
// the same options for its backend links and its failover walk. The zero
// value keeps the historical behavior: one connection, one attempt per
// operation, a 30s per-operation deadline.
type DialOptions struct {
	// DialTimeout bounds each TCP dial, including redials (default 5s).
	DialTimeout time.Duration
	// OpTimeout bounds one request/reply exchange, write included (default
	// 30s). A timed out exchange closes the connection — the late reply can
	// never be matched to a later request.
	OpTimeout time.Duration
	// Retries is how many extra attempts idempotent operations get after a
	// transport failure (default 0 = one attempt; negative counts as 0).
	// Retried inserts carry a request id, so a retry whose original was
	// applied — reply lost on the wire — is answered from the server's
	// dedup window, not re-applied.
	Retries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: base·2^(attempt-1), capped at max, jittered to [d/2, d]
	// (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed makes request ids and backoff jitter deterministic for tests;
	// 0 derives a per-client seed from the clock.
	Seed uint64
}

// Normalize fills in the defaults and clamps a negative Retries to 0.
func (o DialOptions) Normalize() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = uint64(time.Now().UnixNano()) | 1
	}
	return o
}

// Retrier is the seeded state of one logical client's retries: the backoff
// between attempts and the request ids that make retried ingest
// exactly-once. Only the client that sends a request mints its id; a
// router walking a node's failover targets forwards that one id to each
// and uses its own Retrier for backoff alone, so a promoted replica's
// dedup window never meets a re-issued id. Safe for concurrent use.
type Retrier struct {
	base, max time.Duration
	idPfx     string

	mu  sync.Mutex
	rng uint64 // xorshift state, never 0
	seq uint64
}

// NewRetrier builds the retry state for o (normalized first).
func NewRetrier(o DialOptions) *Retrier {
	o = o.Normalize()
	return &Retrier{
		base:  o.RetryBase,
		max:   o.RetryMax,
		idPfx: fmt.Sprintf("c%x", splitmix64(o.Seed)&0xffffffff),
		rng:   o.Seed,
	}
}

// Backoff is the delay before retry attempt (1-based): RetryBase doubled
// per attempt up to RetryMax, jittered to [d/2, d] so synchronized clients
// fan out.
func (r *Retrier) Backoff(attempt int) time.Duration {
	d := r.base
	for i := 1; i < attempt && d < r.max; i++ {
		d *= 2
	}
	d = min(d, r.max)
	r.mu.Lock()
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	x := r.rng
	r.mu.Unlock()
	half := d / 2
	return half + time.Duration(x%uint64(d-half+1))
}

// NextReqID mints a request id unique within this Retrier; the prefix
// separates clients sharing a server's dedup window.
func (r *Retrier) NextReqID() string {
	r.mu.Lock()
	r.seq++
	n := r.seq
	r.mu.Unlock()
	return r.idPfx + "-" + strconv.FormatUint(n, 10)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Conn is one request/reply connection on the line protocol, the one every
// Go-side speaker uses (a Client, each backend link of a router session).
// Requests go out one at a time — callers serialize Exchange. A reader
// goroutine hands each DATA line to onData as it arrives and every other
// line to the waiting exchange, so the DATA a command produced is delivered
// before its reply. Any transport failure, an exchange that outlives the
// op timeout included, closes the connection: a late reply can never be
// matched to a later request.
type Conn struct {
	nc        net.Conn
	opTimeout time.Duration
	replies   chan string
	done      chan struct{}
	readErr   error // written by the reader before done closes

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps an established connection. onData runs on the reader
// goroutine, once per DATA line; the reply behind the line waits for it.
func NewConn(nc net.Conn, opTimeout time.Duration, onData func(line string)) *Conn {
	cc := &Conn{
		nc:        nc,
		opTimeout: opTimeout,
		replies:   make(chan string, 1),
		done:      make(chan struct{}),
	}
	go cc.readLoop(onData)
	return cc
}

// DialConn dials addr within o.DialTimeout and wraps the connection with
// o.OpTimeout (both normalized).
func DialConn(addr string, o DialOptions, onData func(line string)) (*Conn, error) {
	o = o.Normalize()
	nc, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, err
	}
	return NewConn(nc, o.OpTimeout, onData), nil
}

func (cc *Conn) readLoop(onData func(line string)) {
	r := bufio.NewReaderSize(cc.nc, 64*1024)
	for {
		line, err := ReadLine(r, maxLineBytes)
		if err != nil {
			// ReadLine surfaces a torn final line (connection died mid-reply)
			// as io.ErrUnexpectedEOF instead of the fragment, so a truncated
			// "OK ..." can never parse as a successful answer.
			if err != io.EOF {
				cc.readErr = err
			}
			break
		}
		if strings.HasPrefix(line, "DATA ") {
			onData(line)
			continue
		}
		select {
		case cc.replies <- line:
			continue
		default:
			// The previous reply is still unclaimed, so no request is waiting
			// for this one: the stream is out of step.
			cc.readErr = errors.New("server: unsolicited reply")
		}
		break
	}
	cc.Close()
	close(cc.done)
}

// Exchange sends one request line and returns the reply line ("OK ..." or
// "ERR ..."); an error means the transport failed and the connection is
// closed. The write and the wait for the reply share one op timeout.
func (cc *Conn) Exchange(line string) (string, error) {
	deadline := time.Now().Add(cc.opTimeout)
	cc.nc.SetWriteDeadline(deadline)
	if _, err := io.WriteString(cc.nc, line+"\n"); err != nil {
		cc.Close()
		return "", fmt.Errorf("server: sending request: %w", err)
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case rep := <-cc.replies:
		return rep, nil
	case <-cc.done:
		// A reply read before the connection ended is still the answer.
		select {
		case rep := <-cc.replies:
			return rep, nil
		default:
		}
		if cc.readErr != nil {
			return "", cc.readErr
		}
		return "", errors.New("server: connection closed")
	case <-timer.C:
		cc.Close()
		return "", errors.New("server: request timed out")
	}
}

// Close closes the connection; its reader exits and Done closes.
func (cc *Conn) Close() error {
	cc.closeOnce.Do(func() { cc.closeErr = cc.nc.Close() })
	return cc.closeErr
}

// Done is closed once the reader has exited (the connection is dead).
func (cc *Conn) Done() <-chan struct{} { return cc.done }

// Client is a Go client for the line protocol. Safe for concurrent use;
// requests are serialized and DATA lines are delivered on the Data channel.
// With Retries > 0 it redials on transport failures and resends idempotent
// requests (tagged with request ids, so inserts apply exactly once).
type Client struct {
	addr  string
	opts  DialOptions
	retry *Retrier

	data       chan Data
	dataMu     sync.Mutex // orders sends on data with its close
	dataClosed bool

	mu     sync.Mutex // serializes exchanges and redials
	cc     *Conn
	closed bool
}

// Dial connects to a server with defaults (no retries).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOpts(addr, DialOptions{DialTimeout: timeout})
}

// DialOpts connects with explicit fault-handling options.
func DialOpts(addr string, o DialOptions) (*Client, error) {
	o = o.Normalize()
	cl := &Client{
		addr:  addr,
		opts:  o,
		retry: NewRetrier(o),
		data:  make(chan Data, 1024),
	}
	cl.mu.Lock()
	err := cl.redialLocked()
	cl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// Addr returns the server address the client dials.
func (cl *Client) Addr() string { return cl.addr }

// Data returns the channel of asynchronous query results. It closes when
// the client is closed or — without retries — when the connection ends;
// results are dropped if the channel backs up.
func (cl *Client) Data() <-chan Data { return cl.data }

func (cl *Client) closeData() {
	cl.dataMu.Lock()
	defer cl.dataMu.Unlock()
	if !cl.dataClosed {
		cl.dataClosed = true
		close(cl.data)
	}
}

// deliver decodes one DATA line onto the Data channel. It runs on the
// connection's reader, so it never blocks: a full channel drops the result.
func (cl *Client) deliver(line string) {
	rest := line[len("DATA "):]
	idx := strings.IndexByte(rest, ' ')
	if idx < 0 {
		return
	}
	var rj ResultJSON
	if err := json.Unmarshal([]byte(rest[idx+1:]), &rj); err != nil {
		return
	}
	cl.dataMu.Lock()
	defer cl.dataMu.Unlock()
	if cl.dataClosed {
		return
	}
	select {
	case cl.data <- Data{QueryID: rest[:idx], Result: rj}:
	default:
	}
}

// Close terminates the connection and stops any retrying.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cc := cl.cc
	cl.cc = nil
	cl.mu.Unlock()
	var err error
	if cc != nil {
		err = cc.Close()
		<-cc.Done()
	}
	cl.closeData()
	return err
}

// Err returns the terminal read error, if the current connection has
// failed.
func (cl *Client) Err() error {
	cl.mu.Lock()
	cc := cl.cc
	cl.mu.Unlock()
	if cc == nil {
		return nil
	}
	select {
	case <-cc.done:
		return cc.readErr
	default:
		return nil
	}
}

func (cl *Client) redialLocked() error {
	cc, err := DialConn(cl.addr, cl.opts, cl.deliver)
	if err != nil {
		return err
	}
	cl.cc = cc
	if cl.opts.Retries == 0 {
		// Without retries a dead connection is terminal, matching the
		// original client contract; with retries the data channel survives
		// redials.
		go func() {
			<-cc.Done()
			cl.closeData()
		}()
	}
	return nil
}

func (cl *Client) ensureConnLocked() error {
	if cl.closed {
		return errors.New("server: client closed")
	}
	if cl.cc != nil {
		return nil
	}
	return cl.redialLocked()
}

func (cl *Client) dropConnLocked() {
	if cl.cc != nil {
		cl.cc.Close()
		cl.cc = nil
	}
}

// exchangeLocked performs one request/reply exchange on the current
// connection and splits the reply into an OK payload or a ServerError. A
// transport failure drops the connection (the next exchange redials).
func (cl *Client) exchangeLocked(line string) (string, error) {
	rep, err := cl.cc.Exchange(line)
	if err == nil {
		if msg, ok := strings.CutPrefix(rep, "ERR "); ok {
			return "", ServerError(msg)
		}
		if payload, ok := strings.CutPrefix(rep, "OK"); ok {
			return strings.TrimSpace(payload), nil
		}
		err = fmt.Errorf("server: malformed reply %q", rep)
	}
	cl.dropConnLocked()
	return "", err
}

// roundTrip sends one non-idempotent request: a single attempt, because a
// lost reply leaves the outcome unknown and re-sending could double-apply.
func (cl *Client) roundTrip(line string) (string, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.ensureConnLocked(); err != nil {
		return "", err
	}
	return cl.exchangeLocked(line)
}

// roundTripIdem sends an idempotent request, retrying transport failures
// with exponential backoff and jitter. ERR replies are returned as-is: the
// server answered, so retrying cannot help.
func (cl *Client) roundTripIdem(line string) (string, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= cl.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(cl.retry.Backoff(attempt))
		}
		if err := cl.ensureConnLocked(); err != nil {
			lastErr = err
			continue
		}
		payload, err := cl.exchangeLocked(line)
		if err == nil {
			return payload, nil
		}
		var se ServerError
		if errors.As(err, &se) {
			return "", err
		}
		lastErr = err
	}
	return "", lastErr
}

// FormatStreamDef renders a schema as the STREAM command's arguments,
// "name col col:dist ...": the inverse of ParseStreamDef.
func FormatStreamDef(schema *stream.Schema) string {
	parts := make([]string, 0, schema.Arity()+1)
	parts = append(parts, schema.Name)
	for _, col := range schema.Columns {
		if col.Probabilistic {
			parts = append(parts, col.Name+":dist")
		} else {
			parts = append(parts, col.Name)
		}
	}
	return strings.Join(parts, " ")
}

// FormatInsert renders one INSERT line, without a request id.
func FormatInsert(streamName string, fields ...randvar.Field) string {
	parts := make([]string, 0, len(fields)+2)
	parts = append(parts, "INSERT", streamName)
	for _, f := range fields {
		parts = append(parts, FormatFieldSpec(f))
	}
	return strings.Join(parts, " ")
}

// FormatInsertBatch renders one INSERTBATCH line, tuples separated by "|",
// without a request id.
func FormatInsertBatch(streamName string, rows ...[]randvar.Field) (string, error) {
	if len(rows) == 0 {
		return "", errors.New("server: empty batch")
	}
	parts := make([]string, 0, 2+2*len(rows))
	parts = append(parts, "INSERTBATCH", streamName)
	for i, fields := range rows {
		if i > 0 {
			parts = append(parts, "|")
		}
		for _, f := range fields {
			parts = append(parts, FormatFieldSpec(f))
		}
	}
	return strings.Join(parts, " "), nil
}

// ParseInsertReply returns the number of query results an INSERT or
// INSERTBATCH produced, from its OK payload ("inserted [tuples=N ]results=M").
func ParseInsertReply(payload string) int {
	n := 0
	if _, v, ok := strings.Cut(payload, "results="); ok {
		fmt.Sscan(v, &n)
	}
	return n
}

// Ping checks liveness.
func (cl *Client) Ping() error {
	_, err := cl.roundTripIdem("PING")
	return err
}

// RegisterStream declares a stream schema.
func (cl *Client) RegisterStream(schema *stream.Schema) error {
	_, err := cl.roundTrip("STREAM " + FormatStreamDef(schema))
	return err
}

// Query registers a continuous query under the given id; results arrive on
// Data().
func (cl *Client) Query(id, sqlText string) error {
	if strings.ContainsAny(id, " \n") {
		return fmt.Errorf("server: query id %q contains whitespace", id)
	}
	_, err := cl.roundTrip("QUERY " + id + " " + sqlText)
	return err
}

// ingestRoundTrip sends an ingest line: with retries enabled it appends a
// request id, making the retry loop exactly-once end to end.
func (cl *Client) ingestRoundTrip(line string) (string, error) {
	if cl.opts.Retries == 0 {
		return cl.roundTrip(line)
	}
	return cl.roundTripIdem(line + " @" + cl.retry.NextReqID())
}

// Insert pushes one tuple; the returned count is the number of query
// results the insert produced server-side.
func (cl *Client) Insert(streamName string, fields ...randvar.Field) (int, error) {
	payload, err := cl.ingestRoundTrip(FormatInsert(streamName, fields...))
	if err != nil {
		return 0, err
	}
	return ParseInsertReply(payload), nil
}

// InsertBatch pushes several tuples in one round trip (and, with
// durability on, one WAL record and at most one fsync). Returns the number
// of query results the batch produced server-side.
func (cl *Client) InsertBatch(streamName string, rows ...[]randvar.Field) (int, error) {
	line, err := FormatInsertBatch(streamName, rows...)
	if err != nil {
		return 0, err
	}
	payload, err := cl.ingestRoundTrip(line)
	if err != nil {
		return 0, err
	}
	return ParseInsertReply(payload), nil
}

// Stats fetches a query's counters.
func (cl *Client) Stats(id string) (core.QueryStats, error) {
	payload, err := cl.roundTripIdem("STATS " + id)
	if err != nil {
		return core.QueryStats{}, err
	}
	var st core.QueryStats
	if err := json.Unmarshal([]byte(payload), &st); err != nil {
		return core.QueryStats{}, err
	}
	return st, nil
}

// Metrics fetches the server's process-wide metrics snapshot.
func (cl *Client) Metrics() (metrics.Snapshot, error) {
	payload, err := cl.roundTripIdem("METRICS")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(payload), &snap); err != nil {
		return metrics.Snapshot{}, err
	}
	return snap, nil
}

// QueryMetrics is one query's counters plus its accuracy telemetry as
// returned by METRICS <id>.
type QueryMetrics struct {
	ID        string          `json:"id"`
	Stats     core.QueryStats `json:"stats"`
	Telemetry core.Telemetry  `json:"telemetry"`
}

// QueryMetrics fetches one query's counters and accuracy telemetry.
func (cl *Client) QueryMetrics(id string) (QueryMetrics, error) {
	payload, err := cl.roundTripIdem("METRICS " + id)
	if err != nil {
		return QueryMetrics{}, err
	}
	var qm QueryMetrics
	if err := json.Unmarshal([]byte(payload), &qm); err != nil {
		return QueryMetrics{}, err
	}
	return qm, nil
}

// Explain fetches a query's compiled plan.
func (cl *Client) Explain(id string) (string, error) {
	payload, err := cl.roundTripIdem("EXPLAIN " + id)
	if err != nil {
		return "", err
	}
	plan, err := strconv.Unquote(payload)
	if err != nil {
		return "", fmt.Errorf("server: malformed EXPLAIN payload: %w", err)
	}
	return plan, nil
}

// Shed reports the server's current degrade level, or forces one when
// level >= 0 (journaled server-side, like controller transitions).
func (cl *Client) Shed(level int) (int, error) {
	line := "SHED"
	if level >= 0 {
		line = "SHED " + strconv.Itoa(level)
	}
	payload, err := cl.roundTrip(line)
	if err != nil {
		return 0, err
	}
	got := 0
	fmt.Sscanf(payload, "shed level=%d", &got)
	return got, nil
}

// CloseQuery drops a continuous query.
func (cl *Client) CloseQuery(id string) error {
	_, err := cl.roundTrip("CLOSE " + id)
	return err
}

// RoleInfo is the parsed reply of the ROLE command: the node's failover
// state as one consistent observation.
type RoleInfo struct {
	// Role is "primary", "follower", or "fenced" (a deposed primary
	// rejecting writes until it rejoins).
	Role string
	// Epoch is the replication term the node believes is current.
	Epoch uint64
	// Followers is the number of live replication connections the node is
	// serving (0 on pure followers).
	Followers int
	// LastLSN is the newest record in the node's local WAL (0 without
	// durability).
	LastLSN uint64
	// LagRecords is the node's replication lag behind its primary in
	// records (0 on primaries).
	LagRecords int64
	// ReplAddr is the node's replication (WAL-ship) listener address, when
	// it runs one; empty otherwise. Survivors of a failover follow the
	// promoted node at this address.
	ReplAddr string
}

// Role reports the node's failover state (idempotent; safe to retry).
func (cl *Client) Role() (RoleInfo, error) {
	payload, err := cl.roundTripIdem("ROLE")
	if err != nil {
		return RoleInfo{}, err
	}
	var info RoleInfo
	if _, err := fmt.Sscanf(payload, "role=%s epoch=%d followers=%d last_lsn=%d lag_records=%d",
		&info.Role, &info.Epoch, &info.Followers, &info.LastLSN, &info.LagRecords); err != nil {
		return RoleInfo{}, fmt.Errorf("server: malformed ROLE reply %q: %w", payload, err)
	}
	// repl= is optional (only nodes running a ship listener report it) and
	// deliberately trailing, past what Sscanf consumes.
	if i := strings.Index(payload, " repl="); i >= 0 {
		info.ReplAddr = strings.TrimSpace(payload[i+len(" repl="):])
	}
	return info, nil
}

// Subscribe adds this connection as an additional DATA recipient for a
// query owned by another connection. Results arrive on the Data channel.
func (cl *Client) Subscribe(id string) error {
	_, err := cl.roundTrip("SUBSCRIBE " + id)
	return err
}

// Quit asks the server to close the connection gracefully.
func (cl *Client) Quit() error {
	_, err := cl.roundTrip("QUIT")
	if err == nil {
		return cl.Close()
	}
	return err
}
