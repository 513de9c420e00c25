package stream

import (
	"fmt"
)

// CountWindow is a count-based sliding window of whole tuples, of fixed
// capacity: pushing a tuple evicts the oldest once the window is full. Joins
// keep one per side because a probe needs every field of a match; aggregate
// queries use ColumnWindow.
//
// The implementation is a ring buffer: Push is O(1) and Tuples materializes
// the window in arrival order on demand.
type CountWindow struct {
	buf   []*Tuple
	head  int // index of the oldest tuple
	count int
}

// NewCountWindow returns a window holding the most recent size tuples.
func NewCountWindow(size int) (*CountWindow, error) {
	if size < 1 {
		return nil, fmt.Errorf("stream: count window size %d, need ≥ 1", size)
	}
	return &CountWindow{buf: make([]*Tuple, size)}, nil
}

// Push adds t, returning the evicted tuple (nil while the window is
// filling).
func (w *CountWindow) Push(t *Tuple) *Tuple {
	if w.count < len(w.buf) {
		w.buf[(w.head+w.count)%len(w.buf)] = t
		w.count++
		return nil
	}
	old := w.buf[w.head]
	w.buf[w.head] = t
	w.head = (w.head + 1) % len(w.buf)
	return old
}

// Len returns the number of tuples currently in the window.
func (w *CountWindow) Len() int { return w.count }

// Full reports whether the window has reached capacity.
func (w *CountWindow) Full() bool { return w.count == len(w.buf) }

// Cap returns the window capacity.
func (w *CountWindow) Cap() int { return len(w.buf) }

// Tuples returns the window contents oldest-first.
func (w *CountWindow) Tuples() []*Tuple {
	return w.AppendTuples(nil)
}

// AppendTuples appends the window contents oldest-first to dst and returns
// the extended slice. Passing a reused dst[:0] lets per-push hot paths read
// the window without allocating a fresh slice each time.
func (w *CountWindow) AppendTuples(dst []*Tuple) []*Tuple {
	for i := 0; i < w.count; i++ {
		dst = append(dst, w.buf[(w.head+i)%len(w.buf)])
	}
	return dst
}

// Do calls fn for each tuple oldest-first without allocating.
func (w *CountWindow) Do(fn func(*Tuple)) {
	for i := 0; i < w.count; i++ {
		fn(w.buf[(w.head+i)%len(w.buf)])
	}
}

// RestoreTuples replaces the window contents with tuples (oldest-first),
// e.g. when a checkpointed window is reloaded during crash recovery. It
// fails if tuples exceed the window capacity.
func (w *CountWindow) RestoreTuples(tuples []*Tuple) error {
	if len(tuples) > len(w.buf) {
		return fmt.Errorf("stream: restoring %d tuples into count window of %d",
			len(tuples), len(w.buf))
	}
	for i := range w.buf {
		w.buf[i] = nil
	}
	copy(w.buf, tuples)
	w.head = 0
	w.count = len(tuples)
	return nil
}
