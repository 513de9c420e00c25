package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accuracy"
	"repro/internal/core"
)

// recConn is an in-memory net.Conn that records every Write as one entry,
// so tests can count socket writes and read back the exact wire bytes. Reads
// serve the scripted input and then EOF, which lets a test run the real
// connection handler against it.
type recConn struct {
	mu      sync.Mutex
	in      *strings.Reader
	writes  [][]byte
	discard bool // count nothing, keep nothing (benchmarks, fuzzing)
	// failFrom makes the failFrom-th Write (1-based) and every later one
	// fail; 0 never fails.
	failFrom int
	// entered receives one token per Write that is about to wait on gate;
	// gate, when non-nil, blocks every Write until it is closed.
	entered chan struct{}
	gate    chan struct{}
	closed  bool
}

var errRecConnWrite = errors.New("recConn: injected write failure")

func (c *recConn) Write(p []byte) (int, error) {
	if c.discard {
		return len(p), nil
	}
	if c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, bytes.Clone(p))
	if c.failFrom > 0 && len(c.writes) >= c.failFrom {
		return 0, errRecConnWrite
	}
	return len(p), nil
}

func (c *recConn) Read(p []byte) (int, error) {
	if c.in == nil {
		return 0, io.EOF
	}
	return c.in.Read(p)
}

func (c *recConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// take returns the writes recorded so far and forgets them.
func (c *recConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

func (c *recConn) LocalAddr() net.Addr              { return recAddr{} }
func (c *recConn) RemoteAddr() net.Addr             { return recAddr{} }
func (c *recConn) SetDeadline(time.Time) error      { return nil }
func (c *recConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

type recAddr struct{}

func (recAddr) Network() string { return "rec" }
func (recAddr) String() string  { return "rec" }

func newTestServer(t testing.TB, cfg core.Config) *Server {
	t.Helper()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurable(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustDispatch(t testing.TB, s *Server, c *conn, line string) {
	t.Helper()
	if _, err := s.dispatch(c, line); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
}

// sharedFleet registers n identical windowed queries (one plan group) owned
// by c and fills the window, so every further tuple emits n results.
func sharedFleet(t testing.TB, s *Server, c *conn, n int) {
	t.Helper()
	mustDispatch(t, s, c, "STREAM s key v:dist")
	for i := 0; i < n; i++ {
		mustDispatch(t, s, c, fmt.Sprintf("QUERY q%03d SELECT AVG(v) AS a FROM s WINDOW 4 ROWS", i))
	}
	mustDispatch(t, s, c, "INSERTBATCH s 1 N(10,4,25) | 2 N(11,3,30) | 3 N(12,5,9) | 4 N(9,2,40)")
}

// TestOneWritePerCommand pins the tentpole's write shape: an INSERT or
// INSERTBATCH whose DATA lines go to the inserting connection costs one
// socket write carrying the DATA lines and then the reply, and a fan-out
// too large for one buffer costs ⌈bytes/writeBufSize⌉ writes.
func TestOneWritePerCommand(t *testing.T) {
	s := newTestServer(t, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
	rc := &recConn{}
	c := &conn{id: 1, c: rc}
	sharedFleet(t, s, c, 2)
	rc.take()
	lines := mDataLines.Value()

	for _, tc := range []struct {
		cmd, reply string
		data       int
	}{
		{"INSERT s 5 N(10,4,25)", "OK inserted results=2", 2},
		{"INSERTBATCH s 6 N(11,4,25) | 7 N(12,4,25) | 8 N(13,4,25)", "OK inserted tuples=3 results=6", 6},
	} {
		mustDispatch(t, s, c, tc.cmd)
		w := rc.take()
		if len(w) != 1 {
			t.Fatalf("%s: %d socket writes, want 1", tc.cmd, len(w))
		}
		got := strings.Split(strings.TrimSuffix(string(w[0]), "\n"), "\n")
		if len(got) != tc.data+1 {
			t.Fatalf("%s: %d lines in the write, want %d DATA + reply:\n%s", tc.cmd, len(got), tc.data, w[0])
		}
		// DATA strictly before the reply; within a query, emission order.
		for i, line := range got[:tc.data] {
			want := fmt.Sprintf("DATA q%03d ", i/(tc.data/2))
			if !strings.HasPrefix(line, want) {
				t.Errorf("%s: line %d = %q, want prefix %q", tc.cmd, i, line, want)
			}
		}
		if got[tc.data] != tc.reply {
			t.Errorf("%s: last line %q, want %q", tc.cmd, got[tc.data], tc.reply)
		}
	}
	if got := mDataLines.Value() - lines; got != 8 {
		t.Errorf("data_lines delta = %d, want 8 (the counter counts lines, not writes)", got)
	}

	// A 128-member plan group: 512 lines per 4-tuple batch, several buffers.
	s = newTestServer(t, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
	sharedFleet(t, s, c, 128)
	rc.take()
	mustDispatch(t, s, c, "INSERTBATCH s 1 N(10,4,25) | 2 N(11,3,30) | 3 N(12,5,9) | 4 N(9,2,40)")
	w := rc.take()
	total := 0
	for _, p := range w {
		total += len(p)
	}
	if total <= writeBufSize {
		t.Fatalf("fan-out is only %d bytes; the test needs more than one buffer", total)
	}
	if max := (total + writeBufSize - 1) / writeBufSize; len(w) > max {
		t.Errorf("fan-out of %d bytes took %d writes, want <= %d", total, len(w), max)
	}
	all := string(bytes.Join(w, nil))
	if n := strings.Count(all, "\nDATA ") + 1; n != 512 {
		t.Errorf("fan-out carried %d DATA lines, want 512", n)
	}
	if !strings.HasSuffix(all, "\nOK inserted tuples=4 results=512\n") {
		t.Errorf("fan-out does not end in its reply: %q", all[len(all)-60:])
	}
}

// TestCheckpointFlushesDataFirst pins the one exception to one write per
// command: when the command makes a checkpoint due, its DATA lines leave
// before the snapshot runs and the reply follows in a second write.
func TestCheckpointFlushesDataFirst(t *testing.T) {
	s := newTestServer(t, durableConfig(t.TempDir(), 1, 4))
	defer s.Close()
	rc := &recConn{}
	c := &conn{id: 1, c: rc}
	mustDispatch(t, s, c, "STREAM s key v:dist")
	mustDispatch(t, s, c, "QUERY q SELECT v FROM s") // record 2
	mustDispatch(t, s, c, "INSERT s 1 N(10,4,25)")   // record 3: one write
	if w := rc.take(); len(w) != 3 || !strings.HasPrefix(string(w[2]), "DATA q ") || !strings.HasSuffix(string(w[2]), "\nOK inserted results=1\n") {
		t.Fatalf("before the checkpoint: writes %q", w)
	}
	mustDispatch(t, s, c, "INSERT s 2 N(11,4,25)") // record 4: checkpoint due
	w := rc.take()
	if len(w) != 2 {
		t.Fatalf("checkpointing INSERT: %d writes, want 2 (DATA, then reply): %q", len(w), w)
	}
	if !strings.HasPrefix(string(w[0]), "DATA q ") || strings.Count(string(w[0]), "\n") != 1 {
		t.Errorf("first write %q, want the DATA line alone", w[0])
	}
	if string(w[1]) != "OK inserted results=1\n" {
		t.Errorf("second write %q, want the reply", w[1])
	}
	if s.sinceCk.Load() != 0 {
		t.Errorf("checkpoint did not run between the writes (sinceCk=%d)", s.sinceCk.Load())
	}
}

// TestSharedBodyByteIdentity runs 128 shared queries through the real
// command path and compares every wire byte with the per-line reference
// renderer applied to a twin engine's results.
func TestSharedBodyByteIdentity(t *testing.T) {
	cfg := core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1}
	s := newTestServer(t, cfg)
	twin := newTestServer(t, cfg)
	rc := &recConn{}
	c := &conn{id: 1, c: rc}
	sharedFleet(t, s, c, 128)
	sharedFleet(t, twin, &conn{id: 1, c: &recConn{discard: true}}, 128)
	rc.take()

	const batch = "s 5 N(10.5,4,25) | 6 0.1 | 7 N(-3e-7,2.5e21,4)"
	mustDispatch(t, s, c, "INSERTBATCH "+batch)
	_, rows, err := parseInsertRows(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	results, err := twin.engine.IngestBatch("s", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	n := 0
	for _, qr := range results {
		for j, r := range qr.Results {
			// The premise: a plan group hands every member the same tuple.
			if r.Tuple != results[0].Results[j].Tuple {
				t.Fatalf("query %s result %d does not share the group's tuple", qr.ID, j)
			}
			if want, err = appendDataLine(want, qr.ID, r); err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			n++
		}
	}
	want = append(want, fmt.Sprintf("OK inserted tuples=3 results=%d\n", n)...)
	if n != 3*128 {
		t.Fatalf("twin emitted %d results, want %d", n, 3*128)
	}
	if got := bytes.Join(rc.take(), nil); !bytes.Equal(got, want) {
		t.Errorf("shared-body wire bytes differ from per-member rendering:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestUnsharedResultsRenderOwn feeds planDeliveries results that look alike
// without being one emission: equal tuple contents behind distinct tuple
// pointers, and one tuple pointer under a different Unsure flag. Each line
// must come from its own result.
func TestUnsharedResultsRenderOwn(t *testing.T) {
	s := newTestServer(t, core.Config{})
	c := &conn{id: 1, c: &recConn{}}
	base := renderTestResults(t)[0]
	clone := *base.Tuple
	wide := map[string]*accuracy.Info{"alpha": {
		N: 25, Level: 0.9,
		Mean:     accuracy.Interval{Lo: 1, Hi: 5, Level: 0.9},
		Variance: accuracy.Interval{Lo: 0.25, Hi: 1, Level: 0.9},
	}}
	results := []core.QueryResults{
		{ID: "qa", Results: []core.Result{base}},
		{ID: "qb", Results: []core.Result{{Tuple: &clone, Fields: wide}}},
		{ID: "qc", Results: []core.Result{{Tuple: base.Tuple, Unsure: true}}},
		{ID: "qd", Results: []core.Result{base}},
	}
	for _, qr := range results {
		s.queries[qr.ID] = &registeredQuery{id: qr.ID, owner: c}
	}
	emitted, err := s.planDeliveries(&c.scratch, c, results)
	items := c.scratch.items
	if err != nil || emitted != 4 || len(items) != 4 {
		t.Fatalf("planDeliveries: emitted=%d items=%d err=%v", emitted, len(items), err)
	}
	for i, qr := range results {
		want, err := appendDataLine(nil, qr.ID, qr.Results[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := "DATA " + items[i].id + " " + string(items[i].body.buf); got != string(want)+"\n" {
			t.Errorf("query %s:\n got %q\nwant %q", qr.ID, got, want)
		}
	}
	if bytes.Equal(items[0].body.buf, items[1].body.buf) {
		t.Error("qb rendered qa's body: its own accuracy intervals are missing")
	}
	if !bytes.Contains(items[2].body.buf, []byte(`"unsure":true`)) {
		t.Error("qc rendered the cached body of the same tuple without its unsure flag")
	}
	if items[3].body != items[0].body || len(c.scratch.ems) != 3 {
		t.Errorf("qd did not share qa's body, or the command rendered %d bodies, want 3", len(c.scratch.ems))
	}
	dropDeliveries(c, &c.scratch)
}

// testFrames returns n single-reference bodies whose DATA lines for query
// "q" are size bytes each, the i-th filled with the letter 'a'+i.
func testFrames(n, size int) []*frame {
	frames := make([]*frame, n)
	for i := range frames {
		f := newFrame()
		f.buf = append(f.buf, bytes.Repeat([]byte{'a' + byte(i)}, size-len("DATA q \n"))...)
		f.buf = append(f.buf, '\n')
		frames[i] = f
	}
	return frames
}

func assertReleasedOnce(t *testing.T, frames []*frame) {
	t.Helper()
	assertRefs(t, frames, 0)
}

func assertRefs(t *testing.T, frames []*frame, want int32) {
	t.Helper()
	for i, f := range frames {
		if refs := f.refs.Load(); refs != want {
			t.Errorf("body %d: refcount %d, want %d", i, refs, want)
		}
	}
}

// planBatch ingests one INSERTBATCH payload into s's engine and plans its
// deliveries into from's scratch, returning the distinct bodies planned.
func planBatch(t *testing.T, s *Server, from *conn, payload string) []*frame {
	t.Helper()
	_, rows, err := parseInsertRows(payload, true)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.engine.IngestBatch("s", rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.planDeliveries(&from.scratch, from, results); err != nil {
		t.Fatal(err)
	}
	var bodies []*frame
	for _, it := range from.scratch.items {
		if !slices.Contains(bodies, it.body) {
			bodies = append(bodies, it.body)
		}
	}
	return bodies
}

// TestWriteErrorMidBatch fails a same-connection batch on its second socket
// write: nothing is written after the failure, every body's references are
// released exactly once, lines for another connection still go out, and a
// command that hits the failure logs one line, not one per line.
func TestWriteErrorMidBatch(t *testing.T) {
	s := newTestServer(t, core.Config{})
	rc := &recConn{failFrom: 2}
	from := &conn{id: 1, c: rc}
	otherRC := &recConn{}
	other := &conn{id: 2, c: otherRC}
	lines := mDataLines.Value()

	// Five 40 KB lines: the second write (bytes 64K..128K) fails with
	// lines 3 and 4 not yet staged. The command holds one reference to each
	// body; the other connection's line holds a second one to body 1.
	frames := testFrames(5, 40<<10)
	shared := frames[1]
	shared.refs.Store(2)
	sc := &deliveryScratch{}
	for _, f := range frames {
		sc.items = append(sc.items, delivery{from, dataLine{"q", f}})
		sc.ems = append(sc.ems, emission{body: f, own: true})
	}
	sc.items = append(sc.items, delivery{other, dataLine{"q", shared}})
	err := s.sendDeliveries(from, sc, "OK inserted results=5")
	if !errors.Is(err, errRecConnWrite) {
		t.Fatalf("sendDeliveries error = %v, want the injected write failure", err)
	}
	if w := rc.take(); len(w) != 2 {
		t.Errorf("%d writes to the failing conn, want 2 (it stops at the first error)", len(w))
	}
	assertReleasedOnce(t, frames)
	if w := otherRC.take(); len(w) != 1 || len(w[0]) != 40<<10 {
		t.Errorf("the other connection got %d writes, want its one frame", len(w))
	}
	// Frame 0 left in the successful first write, frames 1 and 2 ended in
	// the failed one; the other connection's copy arrived.
	if got := mDataLines.Value() - lines; got != 2 {
		t.Errorf("data_lines delta = %d, want 2", got)
	}

	// Planned bodies shared with a subscriber's outbox: after the failure
	// only the queued lines' references remain, and draining them ends at
	// zero.
	s = newTestServer(t, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
	rc = &recConn{}
	from = &conn{id: 1, c: rc}
	sub := &conn{id: 2, c: &recConn{discard: true}, outbox: make(chan dataLine, 8)}
	sharedFleet(t, s, from, 128)
	mustDispatch(t, s, sub, "SUBSCRIBE q007")
	rc.take()
	rc.failFrom = 2
	bodies := planBatch(t, s, from, "s 5 N(10,4,25) | 6 N(11,4,25) | 7 N(12,4,25) | 8 N(13,4,25)")
	if err := s.sendDeliveries(from, &from.scratch, "OK"); !errors.Is(err, errRecConnWrite) {
		t.Fatalf("sendDeliveries error = %v, want the injected write failure", err)
	}
	assertRefs(t, bodies, 1)
	sub.drainOutbox(<-sub.outbox)
	assertReleasedOnce(t, bodies)

	// The same failure through the connection handler: one log line.
	var logged bytes.Buffer
	s.logger = log.New(&logged, "", 0)
	script := "STREAM t key v:dist\nQUERY q SELECT v FROM t\nINSERTBATCH t 1 N(10,4,25)" +
		strings.Repeat(" | 1 N(10,4,25)", 600) + "\n"
	s.handle(&recConn{in: strings.NewReader(script), failFrom: 3})
	if n := strings.Count(logged.String(), errRecConnWrite.Error()); n != 1 {
		t.Errorf("a failed fan-out write logged %d write errors, want 1:\n%s", n, logged.String())
	}
}

// TestOutboxBurstOneFlush queues a burst behind a drainer that is blocked
// in a socket write: the whole burst leaves in the drainer's next write.
func TestOutboxBurstOneFlush(t *testing.T) {
	rc := &recConn{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	c := &conn{id: 1, c: rc,
		outbox: make(chan dataLine, 64), outboxStop: make(chan struct{}), outboxDone: make(chan struct{})}
	go c.outboxLoop()
	lines := mDataLines.Value()

	frames := testFrames(17, 40)
	if !c.queueFrame(dataLine{"q", frames[0]}) {
		t.Fatal("queueFrame rejected the first line")
	}
	<-rc.entered // the drainer is inside Write with line 0
	for _, f := range frames[1:] {
		if !c.queueFrame(dataLine{"q", f}) {
			t.Fatal("queueFrame rejected a burst line")
		}
	}
	close(rc.gate)
	<-rc.entered // second write entered: the burst
	c.stopOutbox()

	w := rc.take()
	if len(w) != 2 {
		t.Fatalf("%d socket writes, want 2 (frame 0, then the burst)", len(w))
	}
	var want []byte
	for i := range frames[1:] {
		want = append(want, "DATA q "...)
		want = append(want, bytes.Repeat([]byte{'b' + byte(i)}, 32)...)
		want = append(want, '\n')
	}
	if !bytes.Equal(w[1], want) {
		t.Errorf("burst write = %q, want the 16 lines in queue order", w[1])
	}
	assertReleasedOnce(t, frames)
	if got := mDataLines.Value() - lines; got != 17 {
		t.Errorf("data_lines delta = %d, want 17", got)
	}
}

// TestOutboxDrainWriteError fails the drainer's write: the conn is marked
// dead and closed once, and every queued line's reference is released
// exactly once without further writes, bodies shared by several lines
// included.
func TestOutboxDrainWriteError(t *testing.T) {
	rc := &recConn{failFrom: 1, entered: make(chan struct{}, 8), gate: make(chan struct{})}
	c := &conn{id: 1, c: rc,
		outbox: make(chan dataLine, 64), outboxStop: make(chan struct{}), outboxDone: make(chan struct{})}
	go c.outboxLoop()
	frames := testFrames(3, 32)
	for _, f := range frames {
		f.refs.Store(3)
	}
	c.queueFrame(dataLine{"q", frames[0]})
	<-rc.entered
	for i := 1; i < 9; i++ {
		c.queueFrame(dataLine{fmt.Sprintf("q%d", i), frames[i%3]})
	}
	close(rc.gate)
	c.stopOutbox()
	if w := rc.take(); len(w) != 1 {
		t.Errorf("%d writes, want 1: nothing is written after the failure", len(w))
	}
	if !c.dead.Load() || !rc.closed {
		t.Errorf("dead=%v closed=%v after a failed drain, want both", c.dead.Load(), rc.closed)
	}
	assertReleasedOnce(t, frames)
}

// TestSyncCrossDeliveryNoDeadlock runs two inserting connections that each
// subscribe to the other's query with the outbox disabled, so each writes
// synchronously to the other. A sender that held its own write lock while
// taking the other's would deadlock here.
func TestSyncCrossDeliveryNoDeadlock(t *testing.T) {
	s := newTestServer(t, core.Config{Method: core.AccuracyAnalytical, Seed: 1})
	a := &conn{id: 1, c: &recConn{discard: true}}
	b := &conn{id: 2, c: &recConn{discard: true}}
	mustDispatch(t, s, a, "STREAM sa key v:dist")
	mustDispatch(t, s, b, "STREAM sb key v:dist")
	mustDispatch(t, s, a, "QUERY qa SELECT v FROM sa")
	mustDispatch(t, s, b, "QUERY qb SELECT v FROM sb")
	mustDispatch(t, s, a, "SUBSCRIBE qb")
	mustDispatch(t, s, b, "SUBSCRIBE qa")
	done := make(chan error, 2)
	for _, w := range []struct {
		c    *conn
		line string
	}{{a, "INSERT sa 1 N(10,4,25)"}, {b, "INSERT sb 1 N(10,4,25)"}} {
		go func() {
			for i := 0; i < 500; i++ {
				if _, err := s.dispatch(w.c, w.line); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("inserters deadlocked on each other's write locks")
		}
	}
}

// renderFailureScript streams a SUM over a three-row window past one row
// whose variance overflows the result's interval: every push of the shared
// group while that row is in the window cannot be rendered.
var renderFailureScript = []string{
	"INSERT temps 1 N(1,1,5)",
	"INSERT temps 2 N(1,1,5)",
	"INSERT temps 3 N(1,1,5)",
	"INSERT temps 4 N(1,1.7e308,5)",
	"INSERTBATCH temps 5 N(1,1,5) | 6 N(2,1,5) | 7 N(3,1,5) | 8 N(4,1,5)",
	"INSERTBATCH temps 9 N(1,1.7e308,5) | 10 N(1,1,5)",
	"INSERT temps 11 N(1,1,5)",
	"INSERT temps 12 N(1,1,5)",
}

// TestRenderFailurePin pins the replies and DATA bytes of a shared group of
// three whose emissions cannot be rendered: q1 is owned by the inserting
// connection, q2 only subscribed from a second connection, q3 has no
// recipient. Every reply and each connection's bytes are collected over the
// whole stream and compared once at the end, against
// testdata/render_failure.txt; the second arm detaches all three members.
func TestRenderFailurePin(t *testing.T) {
	var transcript strings.Builder
	for _, arm := range []string{"mixed", "no-recipient"} {
		s := newTestServer(t, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
		arc, brc := &recConn{}, &recConn{}
		a, b := &conn{id: 1, c: arc}, &conn{id: 2, c: brc}
		mustDispatch(t, s, a, "STREAM temps key val:dist")
		for _, id := range []string{"q1", "q2", "q3"} {
			mustDispatch(t, s, a, "QUERY "+id+" SELECT SUM(val) AS s FROM temps WINDOW 3 ROWS")
		}
		mustDispatch(t, s, b, "SUBSCRIBE q2")
		s.mu.Lock()
		detach := []string{"q2", "q3"}
		if arm == "no-recipient" {
			detach = append(detach, "q1")
			s.queries["q2"].subs = nil
		}
		for _, id := range detach {
			s.queries[id].owner = nil
		}
		s.mu.Unlock()
		arc.take()
		brc.take()

		var replies []string
		var aData, bData []byte
		for _, cmd := range renderFailureScript {
			mustDispatch(t, s, a, cmd)
			out := bytes.Join(arc.take(), nil)
			end := bytes.LastIndex(out[:len(out)-1], []byte("\n")) + 1
			replies = append(replies, string(out[end:len(out)-1]))
			aData = append(aData, out[:end]...)
			bData = append(bData, bytes.Join(brc.take(), nil)...)
		}
		fmt.Fprintf(&transcript, "## %s: replies\n", arm)
		for i, r := range replies {
			fmt.Fprintf(&transcript, ">> %s\n%s\n", renderFailureScript[i], r)
		}
		fmt.Fprintf(&transcript, "## %s: DATA to the inserting connection\n%s", arm, aData)
		fmt.Fprintf(&transcript, "## %s: DATA to the subscribing connection\n%s", arm, bData)
	}

	got := transcript.String()
	path := filepath.Join("testdata", "render_failure.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("render-failure transcript diverged from %s\n%s", path, transcriptDiff(string(want), got))
	}
}

// TestDroppedSubscriberLoggedOnce delivers a batch's lines to two dead
// subscribers whose deliveries alternate: each is logged once per command,
// not once per line.
func TestDroppedSubscriberLoggedOnce(t *testing.T) {
	s := newTestServer(t, core.Config{Level: 0.9, Method: core.AccuracyAnalytical, Seed: 1})
	var logged bytes.Buffer
	s.logger = log.New(&logged, "", 0)
	from := &conn{id: 1, c: &recConn{discard: true}}
	mustDispatch(t, s, from, "STREAM s key v:dist")
	mustDispatch(t, s, from, "QUERY q SELECT v FROM s")
	for id := uint64(2); id <= 3; id++ {
		sub := &conn{id: id, c: &recConn{discard: true}, outbox: make(chan dataLine, 1)}
		mustDispatch(t, s, sub, "SUBSCRIBE q")
		sub.dead.Store(true)
	}
	mustDispatch(t, s, from, "INSERTBATCH s 1 N(10,4,25) | 2 N(11,4,25) | 3 N(12,4,25) | 4 N(13,4,25)")
	got := strings.Count(logged.String(), "dropped (slow or closed)")
	if got != 2 || !strings.Contains(logged.String(), "conn 2 dropped") || !strings.Contains(logged.String(), "conn 3 dropped") {
		t.Errorf("four lines to two dead subscribers logged %d drops, want one per connection:\n%s", got, logged.String())
	}
}
