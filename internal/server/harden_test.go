package server

// Serving-path hardening tests (ISSUE 5, tentpole part 2 + satellites):
// admission control, idle timeouts, per-connection panic containment,
// slow-subscriber outboxes, accept retry, torn-request rejection, the shed
// controller's degrade/recover cycle, and the dedup-window plumbing.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// startServerOpts starts an in-memory server with explicit robustness
// options and returns it with its address.
func startServerOpts(t *testing.T, o Options) (*Server, string) {
	t.Helper()
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyBootstrap, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOptions(o)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestMaxConnsAdmission(t *testing.T) {
	_, addr := startServerOpts(t, Options{MaxConns: 2})
	rejected := mConnsRejected.Value()
	a := dialServer(t, addr)
	defer a.c.Close()
	b := dialServer(t, addr)
	defer b.c.Close()
	a.mustOK("PING")
	b.mustOK("PING")

	// Third connection: one clean ERR line, then close.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("rejected conn: %v", err)
	}
	if want := "ERR server at connection limit (2)\n"; line != want {
		t.Fatalf("rejected conn got %q, want %q", line, want)
	}
	c.Close()
	if got := mConnsRejected.Value() - rejected; got != 1 {
		t.Fatalf("conns_rejected delta = %d, want 1", got)
	}

	// Freeing a slot re-admits.
	a.mustOK("QUIT")
	a.c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		d, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		d.SetReadDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(d, "PING\n")
		line, err := bufio.NewReader(d).ReadString('\n')
		d.Close()
		if err == nil && line == "OK pong\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: line=%q err=%v", line, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxConnsRefusedHoldNoSlot serves net.Pipe sessions under MaxConns 1:
// B, refused while A holds the slot, never reads its ERR, so its handler
// stays blocked in the write. Once A has gone, C is admitted all the same.
func TestMaxConnsRefusedHoldNoSlot(t *testing.T) {
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyBootstrap, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetOptions(Options{MaxConns: 1, WriteTimeout: time.Minute})
	dial := func() net.Conn {
		client, server := net.Pipe()
		srv.ServeConn(server)
		return client
	}
	ping := func(c net.Conn) string {
		c.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(c, "PING\n")
		line, _ := bufio.NewReader(c).ReadString('\n')
		return line
	}
	wait := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	a := dial()
	if line := ping(a); line != "OK pong\n" {
		t.Fatalf("A got %q", line)
	}
	rejected := mConnsRejected.Value()
	b := dial()
	wait("B's refusal", func() bool { return mConnsRejected.Value() > rejected })
	a.Close()
	wait("A's handler to end", func() bool { return srv.Live() == 1 })
	c := dial()
	if line := ping(c); line != "OK pong\n" {
		t.Fatalf("C, arriving after A left, got %q", line)
	}
	c.Close()
	b.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIdleTimeout(t *testing.T) {
	_, addr := startServerOpts(t, Options{IdleTimeout: 50 * time.Millisecond})
	idle := mIdleTimeouts.Value()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK("PING")
	// Stay silent past the timeout: the server must close the connection.
	tc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := tc.c.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection stayed open")
	}
	if got := mIdleTimeouts.Value() - idle; got != 1 {
		t.Fatalf("idle_timeouts delta = %d, want 1", got)
	}
}

func TestConnPanicRecoveryIsolation(t *testing.T) {
	testHookDispatch = func(verb string) {
		if verb == "PANICME" {
			panic("injected handler panic")
		}
	}
	defer func() { testHookDispatch = nil }()
	_, addr := startServerOpts(t, Options{})
	panics := mConnPanics.Value()

	victim := dialServer(t, addr)
	bystander := dialServer(t, addr)
	defer bystander.c.Close()
	bystander.mustOK("PING")

	// The panicking command kills only its own connection: no reply, EOF.
	fmt.Fprintf(victim.c, "PANICME\n")
	victim.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := victim.c.Read(make([]byte, 1)); err == nil {
		t.Fatal("panicking connection stayed open")
	}
	victim.c.Close()
	if got := mConnPanics.Value() - panics; got != 1 {
		t.Fatalf("conn_panics delta = %d, want 1", got)
	}
	// Everyone else keeps working.
	bystander.mustOK("PING")
	bystander.mustOK(crashStreamCmd)
}

// TestSlowClientOutboxOverflow unit-tests the bounded outbox: a subscriber
// whose queue is full is disconnected, not waited on.
func TestSlowClientOutboxOverflow(t *testing.T) {
	drops := mSlowClientDrops.Value()
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := &conn{id: 1, c: p1, outbox: make(chan dataLine, 2)}
	line := func() dataLine {
		f := newFrame()
		f.buf = append(f.buf, "{}\n"...)
		return dataLine{"q1", f}
	}
	if !c.queueFrame(line()) || !c.queueFrame(line()) {
		t.Fatal("queueFrame rejected frames below capacity")
	}
	if c.queueFrame(line()) {
		t.Fatal("queueFrame accepted a frame beyond capacity")
	}
	if !c.dead.Load() {
		t.Fatal("overflowing conn not marked dead")
	}
	// The conn was closed, so its handler unblocks promptly.
	if _, err := p1.Write([]byte("x")); err == nil {
		t.Fatal("overflowing conn not closed")
	}
	if c.queueFrame(line()) {
		t.Fatal("queueFrame delivered to a dead conn")
	}
	if got := mSlowClientDrops.Value() - drops; got != 1 {
		t.Fatalf("slow_client_drops delta = %d, want 1", got)
	}
}

// TestStopModes pins Server's three stop modes against a client that
// stays connected and idle: Close waits for it to hang up and then writes
// the final checkpoint; Shutdown waits out DrainTimeout, force-closes it
// and still writes the final checkpoint; Detach closes it at once and
// writes no checkpoint.
func TestStopModes(t *testing.T) {
	const drain = 500 * time.Millisecond
	for _, mode := range []struct {
		name       string
		stop       func(*Server) error
		waits      bool          // returns only once the client hangs up
		least      time.Duration // otherwise takes at least this long
		most       time.Duration // and less than this (0: no bound)
		checkpoint bool          // a final checkpoint covers the WAL's last record
	}{
		{"Close", (*Server).Close, true, 0, 0, true},
		{"Shutdown", (*Server).Shutdown, false, drain, 0, true},
		{"Detach", (*Server).Detach, false, 0, drain, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := core.NewEngine(durableConfig(dir, 1, 1024))
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewDurable(eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.SetOptions(Options{DrainTimeout: drain})
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go s.Serve()
			tc := dialServer(t, addr.String())
			defer tc.c.Close()
			tc.mustOK(crashStreamCmd)
			tc.mustOK(crashQueryCmd)
			tc.mustOK(crashInsertCmd(0))
			w := s.WAL()

			start := time.Now()
			stopped := make(chan error, 1)
			go func() { stopped <- mode.stop(s) }()
			if mode.waits {
				select {
				case err := <-stopped:
					t.Fatalf("returned (%v) while a client was connected", err)
				case <-time.After(drain + drain/2):
				}
				tc.c.Close()
			}
			select {
			case err := <-stopped:
				if err != nil {
					t.Fatalf("stop: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("stop did not return")
			}
			if took := time.Since(start); !mode.waits && (took < mode.least || mode.most > 0 && took >= mode.most) {
				t.Errorf("stop took %v with the client connected, want [%v, %v)", took, mode.least, mode.most)
			}
			if !mode.waits {
				tc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, err := tc.c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("client read after stop: %v, want the server to have closed it", err)
				}
			}
			ckm, err := checkpoint.NewManagerFS(filepath.Join(dir, "checkpoints"), nil)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := ckm.LoadLatest()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case mode.checkpoint && (snap == nil || snap.LSN != w.LastLSN()):
				t.Errorf("final checkpoint %v, want one at the WAL's last lsn %d", snap != nil, w.LastLSN())
			case !mode.checkpoint && snap != nil:
				t.Errorf("a checkpoint at lsn %d was written, want none", snap.LSN)
			}
		})
	}
}

// TestTornRequestNotExecuted checks the server refuses to execute a final
// unterminated line: a request torn mid-wire (peer died before the newline)
// could otherwise parse as a valid, shorter command and misapply.
func TestTornRequestNotExecuted(t *testing.T) {
	_, addr := startServerOpts(t, Options{})
	obs := dialServer(t, addr)
	defer obs.c.Close()
	obs.mustOK(crashStreamCmd)
	obs.mustOK(crashQueryCmd)
	obs.mustOK(crashInsertCmd(0))

	torn := dialServer(t, addr)
	// A complete command proves the connection works, then a torn one.
	torn.mustOK(crashInsertCmd(1))
	if _, err := fmt.Fprintf(torn.c, "INSERT temps 2 N(12.5,2.25,22)"); err != nil {
		t.Fatal(err)
	}
	torn.c.Close() // dies before the newline

	// The torn insert must not have applied: In stays at 2.
	deadline := time.Now().Add(2 * time.Second)
	for {
		reply, _ := obs.cmd("STATS q1")
		if in := statsIn(t, reply); in == 2 {
			time.Sleep(20 * time.Millisecond) // grace: would a late apply land?
			reply, _ = obs.cmd("STATS q1")
			if in := statsIn(t, reply); in != 2 {
				t.Fatalf("torn request applied: In=%d, want 2", in)
			}
			return
		} else if in > 2 {
			t.Fatalf("torn request applied: In=%d, want 2", in)
		}
		if time.Now().After(deadline) {
			t.Fatal("inserts never reached In=2")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShedControllerDegradesAndRecovers drives the controller through a
// full cycle: sustained load above the (tiny) latency target raises the
// degrade level; sustained idleness walks it back to zero.
func TestShedControllerDegradesAndRecovers(t *testing.T) {
	_, addr := startServerOpts(t, Options{Shed: ShedConfig{
		Enabled:      true,
		Interval:     10 * time.Millisecond,
		TargetP99:    time.Nanosecond, // any real push overshoots
		RecoverAfter: 2,
		MinEvals:     1,
	}})
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)

	level := func() int {
		reply, _ := tc.cmd("SHED")
		n := -1
		fmt.Sscanf(reply, "OK shed level=%d", &n)
		return n
	}

	// Overload phase: keep pushing until the controller degrades.
	deadline := time.Now().Add(5 * time.Second)
	i := 0
	for level() == 0 {
		tc.mustOK(crashInsertCmd(i))
		i++
		if time.Now().After(deadline) {
			t.Fatal("controller never degraded under sustained load")
		}
	}
	if l := level(); l < 1 || l > core.MaxDegradeLevel {
		t.Fatalf("degraded level = %d, out of range", l)
	}

	// Recovery phase: go idle; each RecoverAfter healthy intervals shed one
	// level, so full recovery takes a few hundred ms at most.
	deadline = time.Now().Add(5 * time.Second)
	for level() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never recovered; level=%d", level())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShedWidensIntervals pins the accuracy story: the same insert sequence
// evaluated at degrade level 3 must report wider (or equal) confidence
// intervals than at level 0 — shedding trades CI width, never correctness
// of the point estimate.
func TestShedWidensIntervals(t *testing.T) {
	// width sums the mean-interval widths over every emitted window, so one
	// lucky narrow draw cannot flip the comparison.
	width := func(levelCmd string) float64 {
		_, addr := startServerOpts(t, Options{})
		tc := dialServer(t, addr)
		defer tc.c.Close()
		tc.mustOK(crashStreamCmd)
		if levelCmd != "" {
			tc.mustOK(levelCmd)
		}
		tc.mustOK(crashQueryCmd)
		sum, windows := 0.0, 0
		for i := 0; i < 8; i++ {
			for _, line := range tc.mustOK(crashInsertCmd(i)) {
				idx := strings.Index(line, `"mean_interval":{"lo":`)
				if idx < 0 {
					t.Fatalf("no mean interval in %q", line)
				}
				var lo, hi float64
				if _, err := fmt.Sscanf(line[idx:],
					`"mean_interval":{"lo":%g,"hi":%g`, &lo, &hi); err != nil {
					t.Fatalf("parse interval in %q: %v", line, err)
				}
				sum += hi - lo
				windows++
			}
		}
		if windows == 0 {
			t.Fatal("no DATA emitted")
		}
		return sum
	}
	full := width("")
	w1, w2, w3 := width("SHED 1"), width("SHED 2"), width("SHED 3")
	if !(full < w1 && w1 < w2 && w2 < w3) {
		t.Fatalf("interval widths not increasing with degrade level: %g, %g, %g, %g",
			full, w1, w2, w3)
	}
}

func TestSplitReqID(t *testing.T) {
	cases := []struct {
		in, payload, id string
	}{
		{"temps 1 N(1,1,5)", "temps 1 N(1,1,5)", ""},
		{"temps 1 N(1,1,5) @r1", "temps 1 N(1,1,5)", "r1"},
		{"temps 1 N(1,1,5) @c9f-12", "temps 1 N(1,1,5)", "c9f-12"},
		{"temps 1 N(1,1,5) @", "temps 1 N(1,1,5) @", ""},
		{"@solo", "@solo", ""},
		{"a @x @y", "a @x", "y"},
	}
	for _, c := range cases {
		payload, id := SplitReqID(c.in)
		if payload != c.payload || id != c.id {
			t.Errorf("SplitReqID(%q) = (%q, %q), want (%q, %q)",
				c.in, payload, id, c.payload, c.id)
		}
	}
}

func TestDedupWindowEviction(t *testing.T) {
	d := newDedupWindow(2)
	d.put("a", dedupEntry{reply: "OK a"})
	d.put("b", dedupEntry{reply: "OK b"})
	d.put("c", dedupEntry{reply: "OK c"}) // evicts a
	if _, ok := d.byID["a"]; ok {
		t.Fatal("oldest entry not evicted")
	}
	if e, ok := d.byID["b"]; !ok || e.reply != "OK b" {
		t.Fatalf("entry b lost: %v %v", e, ok)
	}
	if e, ok := d.byID["c"]; !ok || e.reply != "OK c" {
		t.Fatalf("entry c lost: %v %v", e, ok)
	}
	// Re-putting an existing id updates in place, no duplicate FIFO slot.
	d.put("b", dedupEntry{reply: "OK b2"})
	if e := d.byID["b"]; e.reply != "OK b2" {
		t.Fatalf("update in place failed: %q", e.reply)
	}
	if n := d.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

// TestDedupWindowConcurrentAttempts sends each of 200 request ids on two
// connections at once, the way a router retries on a timeout while the
// original is still in flight: every id applies once, and both attempts of
// an id get the same reply.
func TestDedupWindowConcurrentAttempts(t *testing.T) {
	_, addr := startServerOpts(t, Options{})
	owner := dialServer(t, addr)
	defer owner.c.Close()
	owner.mustOK(crashStreamCmd)
	owner.mustOK(crashQueryCmd)

	type attempt struct {
		conn net.Conn
		rd   *bufio.Reader
	}
	var pair [2]attempt
	for k := range pair {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pair[k] = attempt{c, bufio.NewReader(c)}
	}
	const ids = 200
	for i := 0; i < ids; i++ {
		line := fmt.Sprintf("%s @r%d\n", crashInsertCmd(i), i)
		var replies [2]string
		var wg sync.WaitGroup
		start := make(chan struct{})
		for k := range pair {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				if _, err := pair[k].conn.Write([]byte(line)); err != nil {
					t.Error(err)
					return
				}
				reply, err := pair[k].rd.ReadString('\n')
				if err != nil {
					t.Error(err)
				}
				replies[k] = reply
			}(k)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if replies[0] != replies[1] || !strings.HasPrefix(replies[0], "OK") {
			t.Fatalf("id r%d: replies %q and %q, want one OK reply twice", i, replies[0], replies[1])
		}
	}
	reply, _ := owner.cmd("STATS q1")
	if in := statsIn(t, reply); in != ids {
		t.Fatalf("In = %d after %d ids sent twice, want %d", in, ids, ids)
	}
}

// TestShedTickRefusedOffPrimary checks that the shed controller changes
// nothing on a read-only replica or a fenced node: a SHED record of its own
// would diverge from the primary's journal. A writable node under the same
// load steps its level up, so the load is real.
func TestShedTickRefusedOffPrimary(t *testing.T) {
	for _, tc := range []struct {
		name      string
		set       func(*Server)
		wantLevel int
	}{
		{"writable", func(*Server) {}, 1},
		{"read-only", func(s *Server) { s.SetReadOnly(true) }, 0},
		{"fenced", func(s *Server) { s.Fence(2) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := core.NewEngine(core.Config{Method: core.AccuracyBootstrap, Seed: 5, DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewDurable(eng, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tc.set(srv)
			c := &shedController{
				s:    srv,
				cfg:  ShedConfig{TargetP99: time.Nanosecond, MinEvals: 1}.normalize(),
				prev: core.PushLatency().Snapshot(),
			}
			lsn := srv.wal.Load().LastLSN()
			for i := 0; i < 4; i++ {
				core.PushLatency().Observe(1) // one-second pushes
			}
			c.tick()
			if got := eng.DegradeLevel(); got != tc.wantLevel {
				t.Errorf("degrade level %d after tick, want %d", got, tc.wantLevel)
			}
			wantLSN := lsn + uint64(tc.wantLevel)
			if got := srv.wal.Load().LastLSN(); got != wantLSN {
				t.Errorf("wal at lsn %d after tick, want %d", got, wantLSN)
			}
		})
	}
}

// One Retrier serves every session of a router at once: its ids stay
// unique under concurrent use.
func TestRetrierConcurrentIDsUnique(t *testing.T) {
	r := NewRetrier(DialOptions{Seed: 3})
	const workers, each = 4, 250
	ids := make(chan string, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Backoff(i%5 + 1)
				ids <- r.NextReqID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool, workers*each)
	for id := range ids {
		if seen[id] {
			t.Fatalf("request id %s minted twice", id)
		}
		seen[id] = true
	}
}

// TestClientBackoffDeterministic pins the retry backoff shape: seeded
// clients produce identical jitter sequences within [d/2, d].
func TestClientBackoffDeterministic(t *testing.T) {
	mk := func() *Retrier {
		return NewRetrier(DialOptions{
			RetryBase: 10 * time.Millisecond,
			RetryMax:  80 * time.Millisecond,
			Seed:      7,
		})
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 70; attempt++ {
		da, db := a.Backoff(attempt), b.Backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: %v != %v", attempt, da, db)
		}
		base := 10 * time.Millisecond << (attempt - 1)
		if base > 80*time.Millisecond || base <= 0 {
			base = 80 * time.Millisecond
		}
		if da < base/2 || da > base {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, da, base/2, base)
		}
	}
}

// TestStalledReplyHoldsNoServerLock: ATTACH and SUBSCRIBE take the
// connection's write lock under the server lock and stage and send their
// reply after releasing it, so a client that sends one and never reads
// stalls only its own connection. Each is pipelined behind a burst of PINGs
// whose held replies fill a write buffer exactly, so staging the reply
// itself must send the buffer. Another connection's INSERT, which takes the
// lock to plan its deliveries, still answers at once instead of after the
// write timeout.
func TestStalledReplyHoldsNoServerLock(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	crash(s) // q1 comes back detached, free to ATTACH
	tc.c.Close()

	eng, err := core.NewEngine(durableConfig(dir, 1, 1024))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewDurable(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetOptions(Options{WriteTimeout: 3 * time.Second})
	t.Cleanup(func() { s2.Close() }) // after the pipes close
	pipe := func() net.Conn {
		p1, p2 := net.Pipe()
		s2.ServeConn(p1)
		t.Cleanup(func() { p2.Close() })
		return p2
	}
	in := pipe()
	writer := &tclient{t: t, c: in, sc: bufio.NewScanner(in)}
	for i, verb := range []string{"SUBSCRIBE", "ATTACH"} {
		start := time.Now()
		burst := strings.Repeat("PING\n", writeBufSize/len("OK pong\n"))
		if _, err := fmt.Fprintf(pipe(), "%s%s q1\n", burst, verb); err != nil {
			t.Fatal(err)
		}
		// Wait for the command to take effect: it is done with the lock
		// then, whether or not its reply was read.
		for registered := false; !registered && time.Since(start) < time.Second; time.Sleep(time.Millisecond) {
			s2.mu.Lock()
			rq := s2.queries["q1"]
			registered = len(rq.subs) == 1 && (rq.owner != nil) == (i == 1)
			s2.mu.Unlock()
		}
		writer.mustOK(crashInsertCmd(i))
		if d := time.Since(start); d > time.Second {
			t.Fatalf("INSERT answered %v after an unread %s reply, want under 1s", d, verb)
		}
	}
}
