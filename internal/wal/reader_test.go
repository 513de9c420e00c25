package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// readAvailable drains the reader until it reports a caught-up tail,
// asserting LSN continuity along the way.
func readAvailable(t *testing.T, r *Reader) []Record {
	t.Helper()
	var recs []Record
	for {
		rec, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return recs
		}
		if len(recs) > 0 && rec.LSN != recs[len(recs)-1].LSN+1 {
			t.Fatalf("LSN gap: %d after %d", rec.LSN, recs[len(recs)-1].LSN)
		}
		recs = append(recs, rec)
	}
}

// TestReaderTailsAcrossRotation interleaves appends with reads on a log
// rotating every ~2 records: the reader must follow the live tail through
// every segment boundary without gaps, duplicates, or payload damage.
func TestReaderTailsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: FsyncNone, SegmentBytes: 128})
	defer l.Close()

	r := l.NewReader(1)
	defer r.Close()

	var got []Record
	for round := 0; round < 10; round++ {
		appendN(t, l, 3, fmt.Sprintf("r%d", round))
		got = append(got, readAvailable(t, r)...)
	}
	segs, err := listSegments(fsOf(l), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments (rotation), got %d", len(segs))
	}
	if len(got) != 30 {
		t.Fatalf("read %d records, want 30", len(got))
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
		want := fmt.Sprintf("r%d-%d", i/3, i%3)
		if string(rec.Payload) != want {
			t.Fatalf("record %d payload = %q, want %q", i, rec.Payload, want)
		}
	}
	// Caught up: the tail reports no record without error.
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("tail: ok=%v err=%v, want false,nil", ok, err)
	}
}

// TestReaderSeeksIntoLaterSegment starts a reader in the middle of the log
// (inside a later segment) and checks it delivers exactly the suffix.
func TestReaderSeeksIntoLaterSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: FsyncNone, SegmentBytes: 128})
	defer l.Close()
	appendN(t, l, 20, "seek")

	r := l.NewReader(13)
	defer r.Close()
	recs := readAvailable(t, r)
	if len(recs) != 8 {
		t.Fatalf("read %d records from 13, want 8", len(recs))
	}
	if recs[0].LSN != 13 || recs[len(recs)-1].LSN != 20 {
		t.Fatalf("suffix spans %d..%d, want 13..20", recs[0].LSN, recs[len(recs)-1].LSN)
	}
}

// frameBytes builds one valid on-disk frame for the given record.
func frameBytes(lsn uint64, typ RecordType, payload []byte) []byte {
	buf := make([]byte, headerSize+metaSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(metaSize+len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], lsn)
	buf[16] = byte(typ)
	copy(buf[headerSize+metaSize:], payload)
	crc := crc32.Checksum(buf[8:], castagnoli)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

// TestReaderTornTail writes a partial frame at the tail: the reader must
// report "nothing yet" (not an error, not a bogus record) until the rest of
// the frame lands, then deliver it intact.
func TestReaderTornTail(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: FsyncNone})
	appendN(t, l, 3, "pre")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(dir, nil, 1)
	defer r.Close()
	if got := len(readAvailable(t, r)); got != 3 {
		t.Fatalf("read %d records, want 3", got)
	}

	// Tear: only the first half of record 4 reaches the file.
	frame := frameBytes(4, RecInsert, []byte("torn-record-payload"))
	seg := filepath.Join(dir, segName(1))
	half := len(frame) / 2
	appendFile(t, seg, frame[:half])
	for i := 0; i < 3; i++ {
		if _, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("torn tail attempt %d: ok=%v err=%v, want false,nil", i, ok, err)
		}
	}

	// The rest lands: the reader resumes from its saved offset.
	appendFile(t, seg, frame[half:])
	rec, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("after completion: ok=%v err=%v", ok, err)
	}
	if rec.LSN != 4 || string(rec.Payload) != "torn-record-payload" {
		t.Fatalf("got LSN %d payload %q", rec.LSN, rec.Payload)
	}
}

// TestReaderTruncatedPosition removes the reader's segment via
// post-checkpoint truncation: Next must fail with ErrTruncated so the
// consumer falls back to a snapshot.
func TestReaderTruncatedPosition(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: FsyncNone, SegmentBytes: 128})
	defer l.Close()
	appendN(t, l, 20, "trunc")

	if err := l.TruncateThrough(15); err != nil {
		t.Fatal(err)
	}
	oldest, err := l.OldestLSN()
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 1 {
		t.Fatalf("truncation removed nothing (oldest=%d)", oldest)
	}

	r := l.NewReader(1)
	defer r.Close()
	if _, _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next after truncation: %v, want ErrTruncated", err)
	}
	// From the surviving suffix the reader still works.
	r2 := l.NewReader(oldest)
	defer r2.Close()
	recs := readAvailable(t, r2)
	if len(recs) == 0 || recs[0].LSN != oldest || recs[len(recs)-1].LSN != 20 {
		t.Fatalf("suffix read %d records starting %d", len(recs), oldest)
	}
}

// TestPinBlocksTruncation holds a Pin over the whole log and checks
// TruncateThrough keeps every pinned segment until the pin advances past
// it or is released.
func TestPinBlocksTruncation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: FsyncNone, SegmentBytes: 128})
	defer l.Close()
	appendN(t, l, 20, "pin")

	p := l.Pin(1)
	if err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	if oldest, _ := l.OldestLSN(); oldest != 1 {
		t.Fatalf("pinned log truncated: oldest=%d, want 1", oldest)
	}

	// Advancing the pin releases only the prefix behind it.
	p.Advance(10)
	if err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	oldest, _ := l.OldestLSN()
	if oldest <= 1 || oldest > 10 {
		t.Fatalf("after Advance(10): oldest=%d, want in (1,10]", oldest)
	}

	p.Release()
	if err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	if after, _ := l.OldestLSN(); after <= oldest {
		t.Fatalf("release did not unblock truncation: oldest=%d", after)
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func fsOf(l *Log) fault.FS { return l.fs }

// TestReplayMatchesReader pins Replay to the Reader it runs on. Over a
// seeded multi-segment log with payloads from 0 bytes to past the reader's
// buffer, and again after TruncateThrough and after Reset, Replay(from)
// yields exactly the records a Reader started at max(from, oldest) yields,
// for every from up to two past the last LSN.
func TestReplayMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{0, 1, 7, 40, 300, readerBufBytes - 1, readerBufBytes + 5000}
	l := mustOpen(t, t.TempDir(), Options{Policy: FsyncNone, SegmentBytes: smallSeg})
	defer l.Close()
	appendRand := func(n int) {
		for i := 0; i < n; i++ {
			p := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(p)
			if _, err := l.Append(RecordType(rng.Intn(7)+1), p); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(phase string) {
		last := l.LastLSN()
		oldest, err := l.OldestLSN()
		if err != nil {
			t.Fatal(err)
		}
		for from := uint64(1); from <= last+2; from++ {
			got := collect(t, l, from)
			start := max(from, oldest)
			r := l.NewReader(start)
			want := readAvailable(t, r)
			r.Close()
			if start <= last && uint64(len(want)) != last-start+1 {
				t.Fatalf("%s: reader from %d read %d records, log ends at %d", phase, start, len(want), last)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Replay(%d) gave %d records, reader %d", phase, from, len(got), len(want))
			}
			for i := range got {
				if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("%s: Replay(%d) record %d = lsn %d, reader lsn %d", phase, from, i, got[i].LSN, want[i].LSN)
				}
			}
		}
	}
	appendRand(60)
	check("appended")
	if err := l.TruncateThrough(l.LastLSN() / 2); err != nil {
		t.Fatal(err)
	}
	if oldest, _ := l.OldestLSN(); oldest == 1 {
		t.Fatal("TruncateThrough removed no segment")
	}
	check("truncated")
	if err := l.Reset(l.LastLSN() + 50); err != nil {
		t.Fatal(err)
	}
	appendRand(30)
	check("reset")
}
