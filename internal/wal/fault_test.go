package wal

import (
	"errors"
	"os"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/fault"
)

// TestFsyncFailureWedges drives an injected fsync failure through Append and
// checks the contract end to end: the append reports the failure, the log
// wedges (no later append can be acknowledged), and a reopen recovers every
// record acknowledged before the fault — and nothing after it.
func TestFsyncFailureWedges(t *testing.T) {
	dir := t.TempDir()
	ifs := fault.NewInjectFS(nil, fault.Rule{
		Op: fault.OpSync, Path: segSuffix, After: 2, Count: 1, Err: fault.ErrFsync,
	})
	l := mustOpen(t, dir, Options{Policy: FsyncAlways, FS: ifs})

	// Two appends ride on the first two (healthy) fsyncs.
	for i := 0; i < 2; i++ {
		if _, err := l.Append(RecInsert, []byte{byte('a' + i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// The third fsync fails: the append must NOT be acknowledged.
	if _, err := l.Append(RecInsert, []byte("c")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append over failed fsync: got %v, want EIO", err)
	}
	// The log is now wedged even though the schedule healed.
	if _, err := l.Append(RecInsert, []byte("d")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after wedge: got %v, want ErrWedged", err)
	}
	if l.Wedged() == nil {
		t.Fatal("Wedged() = nil after fsync failure")
	}
	// Replay still works on a wedged log and sees the un-acked record's
	// frame or not — either is fine in-process; what matters is recovery.
	l.Close()

	// Reopen on the pristine filesystem: every acknowledged record must be
	// there; the failed append ("c") was flushed to the OS before the fsync
	// failed, so it may legitimately survive — but nothing past it can.
	l2 := mustOpen(t, dir, Options{Policy: FsyncAlways, FS: nil})
	defer l2.Close()
	recs := collect(t, l2, 1)
	if len(recs) < 2 || len(recs) > 3 {
		t.Fatalf("recovered %d records, want 2 or 3", len(recs))
	}
	if string(recs[0].Payload) != "a" || string(recs[1].Payload) != "b" {
		t.Fatalf("recovered payloads %q %q, want a b", recs[0].Payload, recs[1].Payload)
	}
	// The log must be appendable again after restart.
	if _, err := l2.Append(RecInsert, []byte("e")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestTornWriteRecovers injects an ENOSPC mid-frame (half the frame reaches
// the file) and checks that reopening truncates the torn tail and recovers
// exactly the acknowledged prefix.
func TestTornWriteRecovers(t *testing.T) {
	dir := t.TempDir()
	ifs := fault.NewInjectFS(nil)
	l := mustOpen(t, dir, Options{Policy: FsyncAlways, FS: ifs})

	for i := 0; i < 3; i++ {
		if _, err := l.Append(RecInsert, []byte{byte('a' + i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// From now on writes to the segment tear: disk full.
	ifs.AddRule(fault.Rule{Op: fault.OpWrite, Path: segSuffix, Torn: true, Err: fault.ErrNoSpace})
	// The frame's one write tears.
	if _, err := l.Append(RecInsert, []byte("doomed")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: got %v, want ENOSPC", err)
	}
	if _, err := l.Append(RecInsert, []byte("x")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after ENOSPC: got %v, want ErrWedged", err)
	}
	l.Close()

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if l2.TruncatedBytes() == 0 {
		t.Fatal("expected a torn tail to be truncated on reopen")
	}
	recs := collect(t, l2, 1)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for i, want := range []string{"a", "b", "c"} {
		if string(recs[i].Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, recs[i].Payload, want)
		}
	}
	// LSNs continue from the recovered prefix.
	lsn, err := l2.Append(RecInsert, []byte("d"))
	if err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if lsn != 4 {
		t.Fatalf("post-recovery lsn = %d, want 4", lsn)
	}
}

// TestTruncateSuffixFailureWedges injects a truncate failure into the
// mid-segment path of TruncateSuffix. The surgery has already closed the
// active segment by then, so the only safe outcome is a wedged log: the next
// append must fail fast with ErrWedged instead of being buffered over a
// closed fd and surfacing a confusing error at flush time.
func TestTruncateSuffixFailureWedges(t *testing.T) {
	dir := t.TempDir()
	ifs := fault.NewInjectFS(nil, fault.Rule{
		Op: fault.OpTruncate, Path: segSuffix, Count: 1, Err: fault.ErrFsync,
	})
	l := mustOpen(t, dir, Options{FS: ifs})
	defer l.Close()
	appendN(t, l, 5, "t")

	// Records 1..5 share one segment, so keeping LSN 2 truncates bytes off
	// the active segment — the injected failure fires there.
	if err := l.TruncateSuffix(2); err == nil {
		t.Fatal("TruncateSuffix over injected truncate failure succeeded")
	}
	if _, err := l.Append(RecInsert, []byte("x")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after failed TruncateSuffix: got %v, want ErrWedged", err)
	}
	if l.Wedged() == nil {
		t.Fatal("Wedged() = nil after failed TruncateSuffix")
	}

	// A reopen on the pristine filesystem recovers the untouched log: the
	// failed surgery never acknowledged a shorter history.
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := len(collect(t, l2, 1)); got != 5 {
		t.Fatalf("recovered %d records after failed truncate, want 5", got)
	}
}

// TestResetFailureWedges does the same for Reset: an injected segment-removal
// failure after the active segment is closed must wedge the log.
func TestResetFailureWedges(t *testing.T) {
	dir := t.TempDir()
	ifs := fault.NewInjectFS(nil, fault.Rule{
		Op: fault.OpRemove, Path: segSuffix, Count: 1, Err: fault.ErrFsync,
	})
	l := mustOpen(t, dir, Options{FS: ifs})
	defer l.Close()
	appendN(t, l, 3, "r")

	if err := l.Reset(10); err == nil {
		t.Fatal("Reset over injected remove failure succeeded")
	}
	if _, err := l.Append(RecInsert, []byte("x")); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after failed Reset: got %v, want ErrWedged", err)
	}
	if l.Wedged() == nil {
		t.Fatal("Wedged() = nil after failed Reset")
	}
}

// TestBatchFsyncFailureNoPartialAck checks a group commit against an injected
// fsync failure: the whole batch is unacknowledged, and no later batch can
// sneak past the wedge.
func TestBatchFsyncFailureNoPartialAck(t *testing.T) {
	dir := t.TempDir()
	ifs := fault.NewInjectFS(nil, fault.Rule{
		Op: fault.OpSync, Path: segSuffix, After: 1, Err: fault.ErrFsync,
	})
	l := mustOpen(t, dir, Options{Policy: FsyncAlways, FS: ifs})

	if _, _, err := appendGroup(l, RecInsertBatch, [][]byte{[]byte("ok1"), []byte("ok2")}); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}
	_, _, err := appendGroup(l, RecInsertBatch, [][]byte{[]byte("bad1"), []byte("bad2")})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("batch over failed fsync: got %v, want EIO", err)
	}
	if _, _, err := appendGroup(l, RecInsertBatch, [][]byte{[]byte("later")}); !errors.Is(err, ErrWedged) {
		t.Fatalf("batch after wedge: got %v, want ErrWedged", err)
	}
	l.Close()

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	recs := collect(t, l2, 1)
	// The acknowledged batch must be fully present; the failed batch was
	// flushed (not synced) so its survival is legal but not required. The
	// "later" batch must never appear.
	if len(recs) < 2 {
		t.Fatalf("recovered %d records, want >= 2", len(recs))
	}
	for _, rec := range recs {
		if string(rec.Payload) == "later" {
			t.Fatal("wedged batch leaked into the log")
		}
	}
	if string(recs[0].Payload) != "ok1" || string(recs[1].Payload) != "ok2" {
		t.Fatalf("acknowledged batch corrupted: %q %q", recs[0].Payload, recs[1].Payload)
	}
}

// countFS counts the Write calls on the files it opens.
type countFS struct {
	fault.FS
	writes atomic.Int64
}

func (fs *countFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{File: f, writes: &fs.writes}, nil
}

type countFile struct {
	fault.File
	writes *atomic.Int64
}

func (f countFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

// TestOneWritePerFrame holds every append, small or past any buffer size,
// to one Write of its whole frame: a full disk can refuse a frame but never
// land half of it between two writes.
func TestOneWritePerFrame(t *testing.T) {
	for _, size := range []int{1, 5000, 64 << 10} {
		fs := &countFS{FS: fault.OS}
		l := mustOpen(t, t.TempDir(), Options{Policy: FsyncAlways, FS: fs})
		for i := 0; i < 3; i++ {
			before := fs.writes.Load()
			if _, err := l.Append(RecInsert, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			if got := fs.writes.Load() - before; got != 1 {
				t.Fatalf("append %d of a %d-byte payload took %d writes, want 1", i, size, got)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
