package server

// Crash-injection tests: a durable server is killed mid-stream (no final
// checkpoint, no WAL close — mimicking a process crash), its on-disk state
// is optionally damaged the way real crashes damage it (torn WAL tail,
// half-written checkpoint), and a fresh server recovers from the data
// directory. The recovered server must then produce byte-identical DATA
// payloads to a reference server that ran the whole command stream
// uninterrupted — at any -workers setting, with the RNG-dependent
// bootstrap accuracy method.

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

func durableConfig(dataDir string, workers, ckEvery int) core.Config {
	return core.Config{
		Level:           0.9,
		Method:          core.AccuracyBootstrap,
		Seed:            5,
		Workers:         workers,
		DataDir:         dataDir,
		FsyncPolicy:     "always",
		CheckpointEvery: ckEvery,
	}
}

func startDurableServer(t testing.TB, cfg core.Config) (*Server, string) {
	t.Helper()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurable(eng, nil)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	return s, addr.String()
}

// crash kills the server the way a process death would: the listener and
// connections drop, but no final checkpoint is written and the WAL is
// abandoned without a clean close. Appends were already flushed (and, with
// the "always" policy, fsynced), so the on-disk WAL is exactly what a real
// crash would leave behind.
func crash(s *Server) {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for _, nc := range s.conns {
		conns = append(conns, nc)
	}
	s.wal.Store(nil) // journaling (incl. disconnect-driven CLOSE records) stops here
	s.ck = nil
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	s.connWG.Wait()
}

type tclient struct {
	t  testing.TB
	c  net.Conn
	sc *bufio.Scanner
}

func dialServer(t testing.TB, addr string) *tclient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return &tclient{t: t, c: c, sc: sc}
}

// cmd sends one command and reads to its OK/ERR reply, collecting any DATA
// lines delivered before it.
func (tc *tclient) cmd(line string) (reply string, data []string) {
	tc.t.Helper()
	if _, err := fmt.Fprintf(tc.c, "%s\n", line); err != nil {
		tc.t.Fatalf("send %q: %v", line, err)
	}
	for tc.sc.Scan() {
		got := tc.sc.Text()
		if strings.HasPrefix(got, "DATA ") {
			data = append(data, got)
			continue
		}
		return got, data
	}
	tc.t.Fatalf("connection closed waiting for reply to %q (scan err %v)", line, tc.sc.Err())
	return "", nil
}

func (tc *tclient) mustOK(line string) []string {
	tc.t.Helper()
	reply, data := tc.cmd(line)
	if !strings.HasPrefix(reply, "OK") {
		tc.t.Fatalf("%q: got %q, want OK", line, reply)
	}
	return data
}

const (
	crashStreamCmd = "STREAM temps key val:dist"
	crashQueryCmd  = "QUERY q1 SELECT AVG(val) FROM temps WINDOW 3 ROWS"
)

func crashInsertCmd(i int) string {
	return fmt.Sprintf("INSERT temps %d N(%d.5,2.25,%d)", i, 10+i, 20+i)
}

// runReference executes the full command stream on one uninterrupted
// server and returns every DATA line plus the final stats reply.
func runReference(t *testing.T, workers, total int) (data []string, stats string) {
	t.Helper()
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, workers, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	for i := 0; i < total; i++ {
		data = append(data, tc.mustOK(crashInsertCmd(i))...)
	}
	reply, _ := tc.cmd("STATS q1")
	return data, reply
}

// runCrashed runs the first phase1 inserts, crashes the server, lets
// damage inject faults into the data directory, recovers a fresh server at
// recoverWorkers, re-attaches, and runs the remaining inserts. Returned
// data/stats cover only the post-recovery phase.
func runCrashed(t *testing.T, phase1, total, crashWorkers, recoverWorkers, ckEvery int,
	damage func(t *testing.T, dataDir string)) (data []string, stats string) {
	t.Helper()
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, crashWorkers, ckEvery))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	for i := 0; i < phase1; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	crash(s)
	tc.c.Close()
	if damage != nil {
		damage(t, dir)
	}

	s2, addr2 := startDurableServer(t, durableConfig(dir, recoverWorkers, ckEvery))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	tc2.mustOK("ATTACH q1")
	for i := phase1; i < total; i++ {
		data = append(data, tc2.mustOK(crashInsertCmd(i))...)
	}
	reply, _ := tc2.cmd("STATS q1")
	return data, reply
}

func compareTail(t *testing.T, refData, gotData []string, refStats, gotStats string) {
	t.Helper()
	if len(gotData) == 0 || len(gotData) > len(refData) {
		t.Fatalf("recovered run emitted %d DATA lines, reference %d", len(gotData), len(refData))
	}
	tail := refData[len(refData)-len(gotData):]
	for i := range gotData {
		if gotData[i] != tail[i] {
			t.Fatalf("DATA line %d diverged after recovery:\nreference: %s\nrecovered: %s",
				i, tail[i], gotData[i])
		}
	}
	if gotStats != refStats {
		t.Fatalf("stats diverged after recovery: reference %q, recovered %q", refStats, gotStats)
	}
}

// TestCrashRecoveryDeterministic kills the server mid-stream and checks
// the recovered server continues bit-identically, across worker counts and
// across both recovery paths (checkpoint+WAL suffix, WAL-only).
func TestCrashRecoveryDeterministic(t *testing.T) {
	const phase1, total = 5, 10
	refData, refStats := runReference(t, 1, total)
	if len(refData) != total-2 {
		t.Fatalf("reference emitted %d DATA lines, want %d (window 3 over %d inserts)",
			len(refData), total-2, total)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, ckEvery := range []int{3, 1024} {
			name := fmt.Sprintf("workers=%d/ckEvery=%d", workers, ckEvery)
			t.Run(name, func(t *testing.T) {
				data, stats := runCrashed(t, phase1, total, workers, workers, ckEvery, nil)
				compareTail(t, refData, data, refStats, stats)
			})
		}
	}
	// Crash at one worker count, recover at another: durability state must
	// be worker-count independent.
	t.Run("workers=4-then-1", func(t *testing.T) {
		data, stats := runCrashed(t, phase1, total, 4, 1, 3, nil)
		compareTail(t, refData, data, refStats, stats)
	})
}

// TestCrashRecoveryTornAppend simulates dying mid-append: garbage and
// partial frames sit past the last durable record. Recovery truncates the
// tail and continues deterministically.
func TestCrashRecoveryTornAppend(t *testing.T) {
	const phase1, total = 5, 10
	refData, refStats := runReference(t, 2, total)
	data, stats := runCrashed(t, phase1, total, 2, 2, 1024, func(t *testing.T, dataDir string) {
		segs, err := filepath.Glob(filepath.Join(dataDir, "wal", "*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no wal segments: %v", err)
		}
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A torn frame: plausible header, missing payload, then noise.
		if _, err := f.Write([]byte{40, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 0x01, 0x02}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
	compareTail(t, refData, data, refStats, stats)
}

// TestCrashRecoveryCorruptCheckpoint simulates dying mid-snapshot: the
// newest checkpoint file is unreadable garbage. Recovery must fall back to
// an older valid checkpoint (or none) plus a longer WAL replay, and still
// match the reference bit-for-bit.
func TestCrashRecoveryCorruptCheckpoint(t *testing.T) {
	const phase1, total = 6, 10
	refData, refStats := runReference(t, 2, total)
	data, stats := runCrashed(t, phase1, total, 2, 2, 2, func(t *testing.T, dataDir string) {
		ckDir := filepath.Join(dataDir, "checkpoints")
		cks, err := filepath.Glob(filepath.Join(ckDir, "ckpt-*.ck"))
		if err != nil || len(cks) == 0 {
			t.Fatalf("no checkpoints written (ckEvery=2, %d inserts): %v", phase1, err)
		}
		newest := cks[len(cks)-1]
		if err := os.WriteFile(newest, []byte("ASDBCKP1 half-written snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		// The WAL suffix needed to rebuild from the older checkpoint must
		// still exist; TruncateThrough keeps whole segments, and with the
		// default 4MiB segment size nothing has rotated away.
	})
	compareTail(t, refData, data, refStats, stats)
}

// TestRecoveredQueriesAreDetached verifies results of recovered queries
// are not delivered until a client ATTACHes, and that a second client
// cannot steal an owned query.
func TestRecoveredQueriesAreDetached(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	for i := 0; i < 4; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	crash(s)
	tc.c.Close()

	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	a := dialServer(t, addr2)
	defer a.c.Close()
	// Detached: the insert is applied (STATS will show it) but no DATA line
	// arrives on any connection.
	if data := a.mustOK(crashInsertCmd(4)); len(data) != 0 {
		t.Fatalf("detached query delivered %d DATA lines, want 0", len(data))
	}
	a.mustOK("ATTACH q1")
	if data := a.mustOK(crashInsertCmd(5)); len(data) != 1 {
		t.Fatalf("attached query delivered %d DATA lines, want 1", len(data))
	}
	b := dialServer(t, addr2)
	defer b.c.Close()
	if reply, _ := b.cmd("ATTACH q1"); !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("second client stole an owned query: %q", reply)
	}
}

// TestGracefulShutdownState verifies the graceful-shutdown path: the
// stream schema survives the restart, while the owned query was dropped on
// client disconnect (a journaled CLOSE) and so does not come back.
func TestGracefulShutdownState(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 2, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	for i := 0; i < 5; i++ {
		tc.mustOK(crashInsertCmd(i))
	}
	tc.c.Close()
	// Graceful path: drains conns, writes the final checkpoint, closes the
	// WAL. Closing the client dropped q1 (it was owned) with a journaled
	// CLOSE record.
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2, addr2 := startDurableServer(t, durableConfig(dir, 2, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	if reply, _ := tc2.cmd("ATTACH q1"); !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("q1 should have been dropped on disconnect, got %q", reply)
	}
	if reply, _ := tc2.cmd(crashStreamCmd); !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("stream temps should have survived the restart (duplicate expected), got %q", reply)
	}
	tc2.mustOK(crashQueryCmd)
	if data := tc2.mustOK(crashInsertCmd(5)); len(data) != 0 {
		t.Fatalf("fresh query over 3-row window emitted %d results after 1 insert", len(data))
	}
}

// TestNonFiniteFieldNeverJournaled: strconv.ParseFloat reads "Inf" and
// "NaN", and a field built from one used to be journaled and applied. Every
// later result over its window then failed to render (JSON has no such
// numbers) although the INSERT behind it had been applied and journaled, and
// no checkpoint could encode the window. Such a field is refused before it
// takes a sequence number or a WAL record, alone or inside a batch, and the
// window goes on emitting.
func TestNonFiniteFieldNeverJournaled(t *testing.T) {
	s, addr := startDurableServer(t, durableConfig(t.TempDir(), 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	tc.mustOK(crashQueryCmd)
	tc.mustOK(crashInsertCmd(0))
	seq, lsn := s.engine.Seq(), s.WAL().LastLSN()
	for _, spec := range nonFiniteSpecs {
		for _, cmd := range []string{
			"INSERT temps 1 " + spec,
			"INSERT temps " + spec + " N(1,1,5)",
			"INSERTBATCH temps 1 N(1,1,5) | 2 " + spec,
		} {
			if reply, _ := tc.cmd(cmd); !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "non-finite number") {
				t.Fatalf("%q: got %q, want ERR naming the non-finite number", cmd, reply)
			}
		}
	}
	if got := s.engine.Seq(); got != seq {
		t.Errorf("engine seq %d after refused inserts, want %d", got, seq)
	}
	if got := s.WAL().LastLSN(); got != lsn {
		t.Errorf("wal lsn %d after refused inserts, want %d: a refused insert was journaled", got, lsn)
	}
	// Rows 0–2 fill the 3-row window; from then on every insert emits.
	for i := 1; i < 5; i++ {
		want := 0
		if i >= 2 {
			want = 1
		}
		if data := tc.mustOK(crashInsertCmd(i)); len(data) != want {
			t.Fatalf("insert %d: %d DATA lines, want %d", i, len(data), want)
		}
	}
}

// TestNaNLevelRefusedAtStart: a NaN confidence level used to pass Config
// normalisation. A daemon started with it applied and journaled every INSERT
// that filled a window, then answered ERR for the query's interval, so a
// client without @reqid would retry and insert twice. The level is now
// refused before a server exists, and the data directory stays empty.
func TestNaNLevelRefusedAtStart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 1, 1024)
	cfg.Level = math.NaN()
	if eng, err := core.NewEngine(cfg); err == nil {
		s, err := NewDurable(eng, nil)
		if err != nil {
			t.Fatalf("NewDurable: %v", err)
		}
		defer s.Close()
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		tc := dialServer(t, addr.String())
		defer tc.c.Close()
		tc.mustOK(crashStreamCmd)
		tc.mustOK(crashQueryCmd)
		for i := 0; i < 3; i++ {
			lsn := s.WAL().LastLSN()
			if reply, _ := tc.cmd(crashInsertCmd(i)); strings.HasPrefix(reply, "ERR") && s.WAL().LastLSN() != lsn {
				t.Errorf("insert %d journaled at lsn %d, then answered %q", i, s.WAL().LastLSN(), reply)
			}
		}
		t.Fatal("core.NewEngine accepted confidence level NaN")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("data dir holds %s after a refused start", e.Name())
	}
}

// TestOversizedSampleNeverJournaled: a field's sample size n sizes the
// bootstrap backend's own draws, n·r values in one buffer. INSERT temps 1
// N(1,1,1099511627776), twice into a 2-row BOOTSTRAP window, used to be
// journaled and then to kill the daemon on a 160 TB allocation — and every
// restart on the same directory again, replaying the record. A sample size
// above core.MaxSampleSize is refused in every field syntax, alone or in a
// batch, before it takes a sequence number or a WAL record; a restart on the
// directory then serves, and the window goes on emitting.
func TestOversizedSampleNeverJournaled(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK("QUERY q1 SELECT AVG(val) FROM temps WINDOW 2 ROWS BACKEND BOOTSTRAP")
	tc.mustOK(crashInsertCmd(0))
	seq, lsn := s.engine.Seq(), s.WAL().LastLSN()
	over := core.MaxSampleSize + 1
	for _, spec := range []string{
		"N(1,1,1099511627776)",
		fmt.Sprintf("N(1,1,%d)", over),
		fmt.Sprintf("H(0,1,2|%d,1)", over-1),
		"S(" + strings.Repeat("1;", over-1) + "2)",
		`J{"dist":{"type":"normal","a":1,"b":1},"n":1099511627776}`,
	} {
		for _, cmd := range []string{
			"INSERT temps 1 " + spec,
			"INSERTBATCH temps 1 N(1,1,5) | 2 " + spec,
		} {
			if reply, _ := tc.cmd(cmd); !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "sample size") {
				t.Fatalf("%.60q: got %q, want ERR naming the sample size", cmd, reply)
			}
		}
	}
	if got := s.engine.Seq(); got != seq {
		t.Errorf("engine seq %d after refused inserts, want %d", got, seq)
	}
	if got := s.WAL().LastLSN(); got != lsn {
		t.Errorf("wal lsn %d after refused inserts, want %d: a refused insert was journaled", got, lsn)
	}
	crash(s)
	tc.c.Close()

	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	tc2.mustOK("PING")
	tc2.mustOK("ATTACH q1")
	if data := tc2.mustOK(crashInsertCmd(1)); len(data) != 1 {
		t.Fatalf("insert after restart: %d DATA lines, want 1", len(data))
	}
}

// TestWideHistogramNeverJournaled: H(-1e308,1e308|2) has finite edges but
// a bucket wider than the largest float64, so every draw from it is
// infinite or NaN. It used to be journaled and answered OK, and every later
// INSERT was journaled and answered ERR while it stayed in the window,
// because Monte Carlo AVG and MAX over the window had fewer than 2 finite
// values. It is refused before it is journaled, in both histogram syntaxes.
func TestWideHistogramNeverJournaled(t *testing.T) {
	s, addr := startDurableServer(t, durableConfig(t.TempDir(), 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	tc.mustOK("QUERY q1 SELECT AVG(val) AS a, MAX(val) AS hi FROM temps WINDOW 2 ROWS")
	tc.mustOK("INSERT temps 0 H(0,1,2|3,4)")
	lsn := s.WAL().LastLSN()
	for _, cmd := range []string{
		"INSERT temps 1 H(-1e308,1e308|2)",
		"INSERTBATCH temps 1 H(0,1|1) | 2 H(-1.5e308,-1.4e308,-1.3e308,-1.2e308,-1.1e308,-1e308,1e308|1,1,1,1,1,1)",
		`INSERT temps 1 J{"dist":{"type":"histogram","edges":[-1e308,1e308],"probs":[1]},"n":2}`,
	} {
		if reply, _ := tc.cmd(cmd); !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "wide") {
			t.Fatalf("%q: got %q, want ERR naming the bucket width", cmd, reply)
		}
	}
	if got := s.WAL().LastLSN(); got != lsn {
		t.Errorf("wal lsn %d after refused inserts, want %d: a refused insert was journaled", got, lsn)
	}
	for i := 1; i < 4; i++ {
		if data := tc.mustOK(fmt.Sprintf("INSERT temps %d H(0,1,2|%d,4)", i, i)); len(data) != 1 {
			t.Fatalf("insert %d: %d DATA lines, want 1", i, len(data))
		}
	}
}

// TestOverflowingDrawsNeverJournaled: a codec field can carry a distribution
// with finite parameters whose draws overflow — a uniform wider than the
// largest float64, an exponential with a subnormal rate, a lognormal with
// μ = 800. Each used to be journaled and answered OK, and every later
// emission of a Monte Carlo MAX over the window failed with too few finite
// values while it stayed there. Each is refused before it is journaled, and
// the window goes on emitting.
func TestOverflowingDrawsNeverJournaled(t *testing.T) {
	s, addr := startDurableServer(t, durableConfig(t.TempDir(), 1, 1024))
	defer s.Close()
	tc := dialServer(t, addr)
	defer tc.c.Close()
	tc.mustOK(crashStreamCmd)
	tc.mustOK("QUERY q1 SELECT MAX(val) AS hi FROM temps WINDOW 4 ROWS")
	tc.mustOK("INSERT temps 0 H(0,1,2|3,4)")
	lsn := s.WAL().LastLSN()
	for _, spec := range []string{
		`J{"dist":{"type":"uniform","a":-1e308,"b":1e308},"n":10}`,
		`J{"dist":{"type":"exponential","a":5e-324},"n":10}`,
		`J{"dist":{"type":"lognormal","a":800,"b":1},"n":10}`,
	} {
		for _, cmd := range []string{
			"INSERT temps 1 " + spec,
			"INSERTBATCH temps 1 N(1,1,5) | 2 " + spec,
		} {
			if reply, _ := tc.cmd(cmd); !strings.HasPrefix(reply, "ERR") || !strings.Contains(reply, "draws") {
				t.Fatalf("%q: got %q, want ERR naming the draw", cmd, reply)
			}
		}
	}
	if got := s.WAL().LastLSN(); got != lsn {
		t.Errorf("wal lsn %d after refused inserts, want %d: a refused insert was journaled", got, lsn)
	}
	for i := 1; i < 8; i++ {
		data := tc.mustOK(fmt.Sprintf("INSERT temps %d H(0,1,2|%d,4)", i, i))
		if want := min(1, i/3); len(data) != want { // the window fills at insert 3
			t.Fatalf("insert %d: %d DATA lines, want %d", i, len(data), want)
		}
	}
}

// TestRecordsAdmittedBeforeBoundsReplay: a journal may hold records from
// before ingest refused oversized samples and infinitely wide buckets. The
// records here are appended to the WAL beside the engine, as such a version
// journaled them. A restart on the directory replays them and serves, and a
// follower fed them applies them: only live ingest checks the bounds.
func TestRecordsAdmittedBeforeBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s, addr := startDurableServer(t, durableConfig(dir, 1, 1024))
	tc := dialServer(t, addr)
	tc.mustOK(crashStreamCmd)
	tc.mustOK("QUERY q1 SELECT AVG(val) FROM temps WINDOW 2 ROWS BACKEND ANALYTICAL")
	tc.mustOK(crashInsertCmd(0))
	want := s.engine.Seq() + 4 // the tuples the records below hold
	for _, rec := range []struct {
		typ     wal.RecordType
		payload string
	}{
		{wal.RecInsert, "temps 1 N(1,1,100000)"},
		{wal.RecInsertBatch, "temps 2 N(2,1,1099511627776) | 3 N(3,1,4)"},
		{wal.RecInsert, "temps 4 H(-1e308,1e308|2)"},
	} {
		if _, err := s.WAL().Append(rec.typ, []byte(rec.payload)); err != nil {
			t.Fatal(err)
		}
	}
	var records []wal.Record
	if err := s.WAL().Replay(1, func(rec wal.Record) error {
		records = append(records, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	crash(s)
	tc.c.Close()

	s2, addr2 := startDurableServer(t, durableConfig(dir, 1, 1024))
	defer s2.Close()
	tc2 := dialServer(t, addr2)
	defer tc2.c.Close()
	tc2.mustOK("PING")
	if got := s2.engine.Seq(); got != want {
		t.Errorf("engine seq %d after replay, want %d: a journaled record was skipped", got, want)
	}

	eng, err := core.NewEngine(core.Config{Level: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for _, rec := range records {
		if err := follower.ApplyReplicated(rec); err != nil {
			t.Fatalf("follower applying lsn %d: %v", rec.LSN, err)
		}
	}
	if got := eng.Seq(); got != want {
		t.Errorf("follower engine seq %d, want %d", got, want)
	}
}
