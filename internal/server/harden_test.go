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
	"strings"
	"sync"
	"testing"
	"time"

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
	c := &conn{id: 1, c: p1, outbox: make(chan *frame, 2)}
	line := func() *frame {
		f := newFrame()
		f.buf = append(f.buf, "DATA q1 {}"...)
		return f
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

func TestAcceptTransientErrorRetry(t *testing.T) {
	eng, err := core.NewEngine(core.Config{Method: core.AccuracyAnalytical})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	retries := mAcceptRetries.Value()
	srv.mu.Lock()
	srv.ln = &flakyListener{Listener: srv.ln, fails: 3}
	srv.mu.Unlock()
	go srv.Serve()
	defer srv.Close()

	// Serve must absorb the transient failures (5+10+20ms backoff) and then
	// accept normally.
	tc := dialServer(t, addr.String())
	defer tc.c.Close()
	tc.mustOK("PING")
	if got := mAcceptRetries.Value() - retries; got != 3 {
		t.Fatalf("accept_retries delta = %d, want 3", got)
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
	if _, ok := d.get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if e, ok := d.get("b"); !ok || e.reply != "OK b" {
		t.Fatalf("entry b lost: %v %v", e, ok)
	}
	if e, ok := d.get("c"); !ok || e.reply != "OK c" {
		t.Fatalf("entry c lost: %v %v", e, ok)
	}
	// Re-putting an existing id updates in place, no duplicate FIFO slot.
	d.put("b", dedupEntry{reply: "OK b2"})
	if e, _ := d.get("b"); e.reply != "OK b2" {
		t.Fatalf("update in place failed: %q", e.reply)
	}
	if n := d.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	// Zero-capacity window is a no-op (dedup disabled).
	z := newDedupWindow(0)
	z.put("x", dedupEntry{})
	if _, ok := z.get("x"); ok || z.len() != 0 {
		t.Fatal("zero-capacity window stored an entry")
	}
}

// One Retrier serves every session of a router and every node of a
// cluster client at once: its ids stay unique under concurrent use.
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
