// Package fault is the deterministic fault-injection harness behind the
// chaos test suite: an injectable filesystem for the durability subsystem
// (internal/wal, internal/checkpoint) and a net.Conn wrapper for the
// serving path.
//
// The design goal is reproducibility. A fault schedule is an explicit list
// of rules — "the 3rd fsync on a .wal file fails", "writes return ENOSPC
// after 4096 bytes", "the connection drops after 100 bytes" — matched by a
// deterministic per-operation counter, never by wall-clock time or
// goroutine scheduling. Replaying the same command sequence against the
// same schedule therefore injects the same faults at the same points, so
// chaos tests can assert bit-identical recovery after arbitrarily nasty
// injected failures.
//
// Two fault surfaces are provided:
//
//   - FS / File: the filesystem operations the WAL and checkpoint manager
//     perform. OS is the passthrough implementation; NewInjectFS wraps any
//     FS with a Schedule of Rules (fsync failure, ENOSPC, torn/partial
//     writes, per-call triggers).
//   - WrapConn: a net.Conn decorator injecting write latency, bounded
//     write chunking (partial writes), and deterministic mid-message drops.
//     Proxy composes it into a TCP relay, so client/server pairs can be
//     tested against connection faults without touching either side.
//
// Everything here is test infrastructure, but it lives in the main module
// (not _test.go files) so the wal, checkpoint, and server suites — and
// future soak binaries — can share one implementation.
package fault

import (
	"errors"
	"syscall"
)

// ErrInjected is the base error wrapped by every injected failure that
// does not imitate a specific errno, so tests can errors.Is against it.
var ErrInjected = errors.New("fault: injected error")

// ErrNoSpace imitates a full disk. It wraps syscall.ENOSPC so code that
// checks for the errno sees the real thing.
var ErrNoSpace = &injectedErr{msg: "fault: injected ENOSPC", err: syscall.ENOSPC}

// ErrFsync is the canonical injected fsync failure (EIO, the errno real
// disks report when a write-back fails).
var ErrFsync = &injectedErr{msg: "fault: injected fsync failure", err: syscall.EIO}

// injectedErr wraps an errno while still matching ErrInjected.
type injectedErr struct {
	msg string
	err error
}

func (e *injectedErr) Error() string { return e.msg }

func (e *injectedErr) Unwrap() error { return e.err }

// Is makes every injected error match ErrInjected in addition to its errno.
func (e *injectedErr) Is(target error) bool { return target == ErrInjected }

// Op identifies one class of intercepted operation.
type Op int

const (
	// OpWrite is File.Write (and the write half of WriteString paths).
	OpWrite Op = iota
	// OpSync is File.Sync — fsync on a file or directory handle.
	OpSync
	// OpOpen covers FS.Open / FS.OpenFile / FS.CreateTemp.
	OpOpen
	// OpRename is FS.Rename.
	OpRename
	// OpRemove is FS.Remove.
	OpRemove
	// OpTruncate is FS.Truncate.
	OpTruncate
	// OpRead is File.Read.
	OpRead
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpOpen:
		return "open"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpRead:
		return "read"
	}
	return "op?"
}
