package cluster

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// Parsing is strict: a line that is not exactly one verb's fields is
// refused, never read as something close to it.
func TestParseFrameRejects(t *testing.T) {
	for _, line := range []string{
		"SYNC 0",                      // missing field
		"HB 5 1",                      // missing field
		"REC 1 1 2 5",                 // REC without its payload
		"FENCE 2 3",                   // extra field on a non-REC verb
		"TRUNC 1 2 3",                 // extra field
		"SNAP 1 1 10 x",               // extra field
		"SYNC 0 1 ",                   // trailing space is an empty extra field
		"SYNC  0 1",                   // empty field
		"SYNC -1 1",                   // sign
		"SYNC +1 1",                   // sign
		"SYNC 1x 1",                   // trailing junk
		"HB 18446744073709551616 1 1", // overflows uint64
		"REC 1 1 256 5 readings 1 2",  // type does not fit in 8 bits
		"BOGUS 1 2",                   // unknown verb
		"ERR SYNC requires <lastAppliedLSN> <epoch>; upgrade the follower",
		"",
	} {
		if fr, err := parseFrame(line); err == nil {
			t.Errorf("parseFrame(%q) = %+v, want an error", line, fr)
		}
	}
}

// The SNAP body is framed by its announced length: it may hold anything,
// newlines included, and must be followed by one newline. A length that
// never arrives is an error, not an allocation of that size.
func TestReadFrameSnapBody(t *testing.T) {
	read := func(wire string) (frame, error) {
		return readFrame(bufio.NewReader(strings.NewReader(wire)))
	}
	fr, err := read("SNAP 7 2 5\na\nb c\n")
	if err != nil || fr.lsn != 7 || fr.epoch != 2 || string(fr.payload) != "a\nb c" {
		t.Fatalf("SNAP round trip: %+v, %v", fr, err)
	}
	for _, wire := range []string{
		"SNAP 7 2 5\nabc",                      // short body
		"SNAP 7 2 3\nabcX",                     // no newline after the body
		"SNAP 7 2 1099511627776\nabc\n",        // 1 TiB announced
		"SNAP 7 2 18446744073709551615\nabc\n", // past MaxInt64
	} {
		if fr, err := read(wire); err == nil {
			t.Errorf("readFrame(%q) = %+v, want an error", wire, fr)
		}
	}
}

// FuzzShipFrame checks that no line panics the parser, that a line it
// accepts re-encodes to the same frame, and that any frame value survives
// append then read unchanged.
func FuzzShipFrame(f *testing.F) {
	f.Add("REC 1 1 2 123 readings sensor temp:dist", uint8(4), uint64(1), uint64(1), uint8(2), uint64(123), []byte("readings 1 N(41,4,25)"))
	f.Add("SYNC 0 1", uint8(0), uint64(0), uint64(1), uint8(0), uint64(0), []byte(nil))
	f.Add("SNAP 9 2 3", uint8(3), uint64(9), uint64(2), uint8(0), uint64(0), []byte("a\nb"))
	f.Add("HB 18446744073709551615 1 5", uint8(5), ^uint64(0), uint64(1), uint8(0), ^uint64(0), []byte(""))
	f.Add("TRUNC 3 2", uint8(2), uint64(3), uint64(2), uint8(255), uint64(7), []byte("x"))
	f.Add("FENCE 7", uint8(1), uint64(0), uint64(7), uint8(0), uint64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, line string, verb uint8, lsn, epoch uint64, typ uint8, n uint64, payload []byte) {
		if fr, err := parseFrame(line); err == nil && fr.verb != "SNAP" {
			again, err := parseFrame(strings.TrimSuffix(string(fr.append(nil)), "\n"))
			if err != nil || !sameFrame(fr, again) {
				t.Fatalf("%q parsed to %+v, which re-parses to %+v, %v", line, fr, again, err)
			}
		}

		verbs := []string{"SYNC", "FENCE", "TRUNC", "SNAP", "REC", "HB"}
		src := frame{verb: verbs[int(verb)%len(verbs)], lsn: lsn, epoch: epoch, typ: uint64(typ), n: n}
		want := frame{verb: src.verb}
		dst := want.fields()
		for i, v := range src.fields() {
			*dst[i] = *v
		}
		switch want.verb {
		case "REC":
			// A REC payload is one WAL record, a single line: it holds no
			// newline and, as the line reader strips one, ends in no '\r'.
			if bytes.ContainsRune(payload, '\n') || bytes.HasSuffix(payload, []byte("\r")) {
				return
			}
			want.payload = payload
		case "SNAP":
			want.payload, want.n = payload, uint64(len(payload))
		}
		br := bufio.NewReader(bytes.NewReader(want.append(nil)))
		got, err := readFrame(br)
		if err != nil || !sameFrame(got, want) {
			t.Fatalf("%+v read back as %+v, %v", want, got, err)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("%+v left bytes after its frame", want)
		}
	})
}

func sameFrame(a, b frame) bool {
	return a.verb == b.verb && a.lsn == b.lsn && a.epoch == b.epoch && a.typ == b.typ && a.n == b.n &&
		bytes.Equal(a.payload, b.payload)
}
