package server

import (
	"bufio"
	"errors"
	"io"
)

// maxLineBytes caps one protocol line, requests and replies alike.
const maxLineBytes = 16 << 20

var errLineTooLong = errors.New("protocol line exceeds its length cap")

// ReadLine reads one newline-terminated line of at most max bytes (max <= 0:
// no cap), stripping the terminator (and a trailing \r). A fragment not
// followed by its newline — the peer or the link died mid-line — returns
// io.ErrUnexpectedEOF rather than the fragment: a torn request must never
// execute (a truncated INSERTBATCH can parse as a valid, shorter batch) and
// a torn reply must never parse as an answer. Every line-protocol speaker,
// client, server, router and ship link, reads through it with its own cap.
func ReadLine(r *bufio.Reader, max int) (string, error) {
	var buf []byte
	for {
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		switch err {
		case nil:
			line := buf[:len(buf)-1]
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			if max > 0 && len(line) > max {
				return "", errLineTooLong
			}
			return string(line), nil
		case bufio.ErrBufferFull:
			if max > 0 && len(buf) > max {
				return "", errLineTooLong
			}
		case io.EOF:
			if len(buf) > 0 {
				return "", io.ErrUnexpectedEOF
			}
			return "", io.EOF
		default:
			return "", err
		}
	}
}
