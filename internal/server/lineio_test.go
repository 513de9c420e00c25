package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// The cap holds for every line, not only for lines long enough to fill the
// reader's buffer: the ship handshake reads SYNC with cap 256 from a 4 KiB
// reader.
func TestReadLineCapsEveryLine(t *testing.T) {
	long := strings.Repeat("x", 1000) + "\n"
	r := bufio.NewReaderSize(strings.NewReader(long+"SYNC 1 2\n"), 4<<10)
	if line, err := ReadLine(r, 256); !errors.Is(err, errLineTooLong) {
		t.Fatalf("1000-byte line under cap 256: got %d bytes, err %v; want errLineTooLong", len(line), err)
	}
	r = bufio.NewReaderSize(strings.NewReader(strings.Repeat("x", 256)+"\r\n"), 4<<10)
	if line, err := ReadLine(r, 256); err != nil || len(line) != 256 {
		t.Fatalf("line at the cap: got %d bytes, err %v", len(line), err)
	}
}

// chunkedReader hands out data in reads of the sizes it cycles through,
// the way a network delivers a stream cut at arbitrary points.
type chunkedReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.sizes) > 0 {
		n = int(r.sizes[r.i%len(r.sizes)]) + 1
		r.i++
	}
	n = min(n, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzReadLine checks the one framing primitive of the line protocol on any
// byte stream cut into arbitrary read sizes: every returned line was
// newline-terminated in the input, a torn final fragment is never returned
// (io.ErrUnexpectedEOF), and no returned line exceeds the cap.
//
// Run with: make fuzz   (or go test -fuzz=FuzzReadLine ./internal/server)
func FuzzReadLine(f *testing.F) {
	f.Add([]byte("INSERT temps 2 N(12.5,2.25,22)"), []byte{3}, uint16(0))
	f.Add([]byte("INSERT temps 1 N(12.5,2.25,22)\nINSERT temps 2 N(12.5,2.25,22)"), []byte{0, 7}, uint16(64))
	f.Add([]byte("OK in"), []byte{4}, uint16(0))
	f.Add([]byte("OK inserted tuples=3 results=3\r\nDATA q1 {}\n"), []byte{1, 15, 2}, uint16(40))
	f.Add([]byte("SYNC 1 2\n"+strings.Repeat("y", 300)+"\n"), []byte{255}, uint16(256))
	f.Add([]byte("\n\r\n\r\r\n"), []byte{0}, uint16(1))
	f.Fuzz(func(t *testing.T, input, sizes []byte, cap16 uint16) {
		max := int(cap16)
		// The smallest buffer bufio allows, so long lines cross fragments.
		r := bufio.NewReaderSize(&chunkedReader{data: input, sizes: sizes}, 16)
		pos := 0
		for {
			line, err := ReadLine(r, max)
			rest := input[pos:]
			if err != nil {
				switch {
				case err == io.EOF:
					if len(rest) != 0 {
						t.Fatalf("io.EOF with %d unread bytes", len(rest))
					}
				case err == io.ErrUnexpectedEOF:
					if len(rest) == 0 || bytes.IndexByte(rest, '\n') >= 0 {
						t.Fatalf("io.ErrUnexpectedEOF but the rest %q is no torn fragment", rest)
					}
				case errors.Is(err, errLineTooLong):
					raw, _, _ := bytes.Cut(rest, []byte("\n"))
					if max <= 0 || len(raw) <= max {
						t.Fatalf("errLineTooLong for a %d-byte line under cap %d", len(raw), max)
					}
				default:
					t.Fatalf("unexpected error %v", err)
				}
				return
			}
			if max > 0 && len(line) > max {
				t.Fatalf("returned a %d-byte line under cap %d", len(line), max)
			}
			switch {
			case bytes.HasPrefix(rest, []byte(line+"\n")):
				pos += len(line) + 1
			case bytes.HasPrefix(rest, []byte(line+"\r\n")):
				pos += len(line) + 2
			default:
				t.Fatalf("returned %q, not a newline-terminated line of the input at %d", line, pos)
			}
		}
	})
}

// An exchange whose request cannot be written fails at the write deadline,
// within one op timeout, and drops the connection.
func TestConnExchangeWriteDeadline(t *testing.T) {
	local, peer := net.Pipe() // the peer never reads
	defer peer.Close()
	const opTimeout = 100 * time.Millisecond
	cc := NewConn(local, opTimeout, func(string) {})
	start := time.Now()
	if rep, err := cc.Exchange("PING"); err == nil {
		t.Fatalf("exchange with a peer that never reads answered %q", rep)
	}
	if took := time.Since(start); took > opTimeout+opTimeout/2 {
		t.Fatalf("exchange failed after %v, want within one op timeout (%v)", took, opTimeout)
	}
	select {
	case <-cc.Done():
	case <-time.After(time.Second):
		t.Fatal("connection not dropped after a failed write")
	}
}
