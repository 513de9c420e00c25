package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/server"
)

// frame is one ship-protocol frame; its append method and parseFrame are
// the only code that knows each verb's fields and their order. One
// conversation runs per follower connection:
//
//	follower → primary:  SYNC <lastAppliedLSN> <epoch>
//	primary  → follower: FENCE <epoch>                                      (the follower announced a higher epoch; the primary fences itself and closes)
//	primary  → follower: TRUNC <safeLSN> <epoch>                            (stale-epoch rejoiner holds a diverged suffix; truncate to safeLSN and re-SYNC)
//	primary  → follower: SNAP <lsn> <epoch> <nbytes>\n<checkpoint bytes>\n (only when the WAL suffix alone cannot catch the follower up)
//	primary  → follower: REC <lsn> <epoch> <type> <shipUnixNano> <payload> (one per WAL record, in LSN order)
//	primary  → follower: HB <lastLSN> <epoch> <shipUnixNano>               (idle heartbeat; carries the primary's shippable frontier)
//
// Every frame carries the sender's current epoch, a fencing token like a
// Raft term; the epoch history itself ships as journaled RecEpoch records.
// Parsing is strict: exactly the verb's fields, each a plain unsigned
// decimal after one space, and a REC type that fits in 8 bits. Only REC
// has text after its fields, its payload (possibly empty, possibly with
// spaces). The SNAP body is not a line: it is framed by its announced
// length alone, with no cap.
type frame struct {
	verb    string // SYNC, FENCE, TRUNC, SNAP, REC or HB
	lsn     uint64 // SYNC: last applied; TRUNC: last safe; SNAP: snapshot; REC: record; HB: frontier
	epoch   uint64
	typ     uint64 // REC: the wal.RecordType
	n       uint64 // REC, HB: ship time in unix nanos; SNAP: body length
	payload []byte // REC: the record payload; SNAP: the checkpoint body
}

// fields lists the frame's numeric fields in wire order; nil for an
// unknown verb.
func (f *frame) fields() []*uint64 {
	switch f.verb {
	case "SYNC", "TRUNC":
		return []*uint64{&f.lsn, &f.epoch}
	case "FENCE":
		return []*uint64{&f.epoch}
	case "SNAP", "HB":
		return []*uint64{&f.lsn, &f.epoch, &f.n}
	case "REC":
		return []*uint64{&f.lsn, &f.epoch, &f.typ, &f.n}
	}
	return nil
}

// append appends the whole frame to b: its line and, for SNAP, the body
// after it. A SNAP announces len(payload) as its length.
func (f frame) append(b []byte) []byte {
	if f.verb == "SNAP" {
		f.n = uint64(len(f.payload))
	}
	b = append(b, f.verb...)
	for _, v := range f.fields() {
		b = strconv.AppendUint(append(b, ' '), *v, 10)
	}
	switch f.verb {
	case "REC":
		b = append(append(b, ' '), f.payload...)
	case "SNAP":
		b = append(append(b, '\n'), f.payload...)
	}
	return append(b, '\n')
}

// parseFrame parses one frame line, without its newline. A SNAP's body
// follows the line; readFrame reads it.
func parseFrame(line string) (frame, error) {
	verb, rest, more := strings.Cut(line, " ")
	f := frame{verb: verb}
	fields := f.fields()
	bad := fields == nil
	for _, v := range fields {
		var tok string
		var err error
		tok, rest, more = strings.Cut(rest, " ")
		*v, err = strconv.ParseUint(tok, 10, 64)
		bad = bad || err != nil
	}
	// A space left after the fields starts a REC payload; any other verb
	// must end at its last field.
	if bad || more != (verb == "REC") || f.typ > math.MaxUint8 {
		return frame{}, fmt.Errorf("cluster: malformed ship frame %.40q", line)
	}
	if more {
		f.payload = []byte(rest)
	}
	return f, nil
}

// readFrame reads one whole frame off br: its line and, for SNAP, the
// length-framed body and the newline after it.
func readFrame(br *bufio.Reader) (frame, error) {
	line, err := server.ReadLine(br, maxShipLine)
	if err != nil {
		return frame{}, err
	}
	f, err := parseFrame(line)
	if err != nil || f.verb != "SNAP" {
		return f, err
	}
	// ReadAll grows the body as bytes arrive, so a header announcing more
	// than ever comes allocates nothing up front. A length past MaxInt64
	// turns negative here and reads nothing, which the length check refuses.
	f.payload, err = io.ReadAll(io.LimitReader(br, int64(f.n)))
	if err == nil && uint64(len(f.payload)) != f.n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return frame{}, fmt.Errorf("cluster: reading snapshot body: %w", err)
	}
	if b, err := br.ReadByte(); err != nil || b != '\n' {
		return frame{}, fmt.Errorf("cluster: snapshot body not newline-terminated")
	}
	return f, nil
}
