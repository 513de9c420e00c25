package wal

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/fault"
)

// appendGroup journals payloads as consecutive records of one type, the way
// a batched ingest does: AppendAsync for each, then one WaitDurable on the
// last, so under FsyncAlways the whole group shares one fsync.
func appendGroup(l *Log, typ RecordType, payloads [][]byte) (first, last uint64, err error) {
	for i, p := range payloads {
		lsn, err := l.AppendAsync(typ, p)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			first = lsn
		}
		last = lsn
	}
	return first, last, l.WaitDurable(last)
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close()

	if _, err := l.Append(RecStream, []byte("ddl")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	payloads := [][]byte{[]byte("b0"), []byte(""), []byte("b2 with spaces"), bytes.Repeat([]byte("y"), 5000)}
	first, last, err := appendGroup(l, RecInsertBatch, payloads)
	if err != nil {
		t.Fatalf("appendGroup: %v", err)
	}
	if first != 2 || last != 5 {
		t.Fatalf("group LSNs = [%d,%d], want [2,5]", first, last)
	}
	if _, err := l.Append(RecInsert, []byte("after")); err != nil {
		t.Fatalf("Append after batch: %v", err)
	}
	recs := collect(t, l, 1)
	if len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d, want contiguous %d", i, r.LSN, i+1)
		}
	}
	for i, p := range payloads {
		r := recs[i+1]
		if r.Type != RecInsertBatch || !bytes.Equal(r.Payload, p) {
			t.Fatalf("batch record %d = {type %d, %q}, want {type %d, %q}",
				i, r.Type, r.Payload, RecInsertBatch, p)
		}
	}
}

func TestAppendBatchRotatesMidBatch(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	payloads := make([][]byte, 20)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batch-record-%02d", i))
	}
	first, last, err := appendGroup(l, RecInsertBatch, payloads)
	if err != nil {
		t.Fatalf("appendGroup: %v", err)
	}
	if first != 1 || last != 20 {
		t.Fatalf("LSNs = [%d,%d], want [1,20]", first, last)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want mid-batch rotation to produce ≥ 3", len(segs))
	}
	l = mustOpen(t, dir, Options{SegmentBytes: 64})
	defer l.Close()
	recs := collect(t, l, 1)
	if len(recs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(recs))
	}
}

// TestAppendBatchSingleFsync proves the group-commit claim directly: a
// whole group of AppendAsyncs under FsyncAlways costs exactly one fsync
// (segment rotation aside), versus one per record for serial Appends.
func TestAppendBatchSingleFsync(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Policy: FsyncAlways})
	defer l.Close()

	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("row-%d", i))
	}
	before := mFsyncs.Value()
	if _, _, err := appendGroup(l, RecInsertBatch, payloads); err != nil {
		t.Fatalf("appendGroup: %v", err)
	}
	if got := mFsyncs.Value() - before; got != 1 {
		t.Fatalf("a group of %d records issued %d fsyncs, want exactly 1", len(payloads), got)
	}
	if got, want := l.SyncedLSN(), l.LastLSN(); got != want {
		t.Fatalf("SyncedLSN = %d, want %d", got, want)
	}
}

// TestAppendBatchTornTail simulates a crash mid-batch: a valid prefix of
// the batch plus one torn frame on disk. Reopen must truncate the torn
// frame and recover exactly the prefix.
func TestAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("torn-batch-%d", i))
	}
	if _, _, err := appendGroup(l, RecInsertBatch, payloads); err != nil {
		t.Fatalf("appendGroup: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the file inside the last frame: drop its final 5 bytes, leaving
	// records 1..7 intact and record 8 torn.
	path := lastSegPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, Options{})
	defer l.Close()
	if l.TruncatedBytes() == 0 {
		t.Fatal("TruncatedBytes = 0, want torn frame dropped")
	}
	recs := collect(t, l, 1)
	if len(recs) != 7 {
		t.Fatalf("recovered %d records, want the 7-record valid prefix", len(recs))
	}
	for i, r := range recs {
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d payload = %q, want %q", i, r.Payload, payloads[i])
		}
	}
	// The log must keep appending cleanly after the truncation.
	lsn, err := l.Append(RecInsert, []byte("next"))
	if err != nil {
		t.Fatalf("Append after torn-batch recovery: %v", err)
	}
	if lsn != 8 {
		t.Fatalf("next lsn = %d, want 8 (torn record's slot reused)", lsn)
	}
}

// TestWaitDurableConcurrent hammers Append from many goroutines under
// FsyncAlways: every append must come back durable (SyncedLSN ≥ its LSN)
// and the log must replay all records. Group-commit coalescing is
// opportunistic, so only correctness is asserted here; the deterministic
// fsync count is covered by TestAppendBatchSingleFsync.
func TestWaitDurableConcurrent(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Policy: FsyncAlways})
	defer l.Close()

	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(RecInsert, []byte(fmt.Sprintf("g%d-%d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				if l.SyncedLSN() < lsn {
					errs <- fmt.Errorf("append returned before lsn %d durable (synced %d)", lsn, l.SyncedLSN())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(collect(t, l, 1)); got != goroutines*per {
		t.Fatalf("replayed %d records, want %d", got, goroutines*per)
	}
}
