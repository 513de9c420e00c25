package server

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/checkpoint"
)

// Idempotent ingest (ISSUE 5, tentpole part 2). A client may tag INSERT /
// INSERTBATCH with a trailing "@<id>" token. The server remembers, per id,
// the reply it produced and the WAL position that made the ingest durable;
// a retry of the same id re-waits durability and replays the remembered
// reply instead of re-applying the tuples. The token is part of the WAL
// payload and checkpoints carry the window, so crash recovery rebuilds the
// same window from the checkpoint and replay, and a retry that straddles a
// crash still applies exactly once.
//
// The window is a bounded FIFO: when full, the oldest id is evicted and a
// retry arriving after eviction re-executes. Clients therefore bound their
// retry horizon (a handful of attempts over seconds) well inside the window.

// dedupEntry remembers one idempotent request's outcome.
type dedupEntry struct {
	// reply is the full protocol reply line ("OK inserted ..." or
	// "ERR <push errors>") the original attempt computed.
	reply string
	// lsn is the WAL position of the journaled record; a retry waits for it
	// to be durable before answering (the original attempt may have crashed
	// or failed between append and fsync).
	lsn uint64
}

type dedupWindow struct {
	mu    sync.Mutex
	max   int
	order []string // FIFO of ids, oldest first
	byID  map[string]dedupEntry
}

func newDedupWindow(max int) *dedupWindow {
	if max < 0 {
		max = 0
	}
	return &dedupWindow{max: max, byID: make(map[string]dedupEntry, max)}
}

func (d *dedupWindow) get(id string) (dedupEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.byID[id]
	return e, ok
}

func (d *dedupWindow) put(id string, e dedupEntry) {
	if d.max == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.byID[id]; !dup {
		for len(d.order) >= d.max {
			delete(d.byID, d.order[0])
			d.order = d.order[1:]
		}
		d.order = append(d.order, id)
	}
	d.byID[id] = e
}

// snapshot returns the window for a checkpoint; nil when empty.
func (d *dedupWindow) snapshot() *checkpoint.DedupWindow {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.order) == 0 {
		return nil
	}
	w := &checkpoint.DedupWindow{IDs: slices.Clone(d.order), Reply: make([]int, len(d.order))}
	interned := make(map[string]int)
	for i, id := range d.order {
		reply := d.byID[id].reply
		k, ok := interned[reply]
		if !ok {
			k = len(w.Replies)
			interned[reply] = k
			w.Replies = append(w.Replies, reply)
		}
		w.Reply[i] = k
	}
	return w
}

// restore replaces the window with a checkpoint's (empty for nil). The
// checkpoint covers each entry's record, so a retry re-waits no
// durability (lsn 0). An entry whose reply index is out of range is
// skipped.
func (d *dedupWindow) restore(w *checkpoint.DedupWindow) {
	d.mu.Lock()
	clear(d.byID)
	d.order = d.order[:0]
	d.mu.Unlock()
	if w == nil {
		return
	}
	for i, id := range w.IDs {
		if i < len(w.Reply) && w.Reply[i] >= 0 && w.Reply[i] < len(w.Replies) {
			d.put(id, dedupEntry{reply: w.Replies[w.Reply[i]]})
		}
	}
}

func (d *dedupWindow) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.byID)
}

// SplitReqID strips a trailing " @<id>" request-id token from an ingest
// payload (or a whole ingest line). Returns the payload unchanged and ""
// when no token is present. Field specs never start with '@', so the
// framing is unambiguous.
func SplitReqID(rest string) (payload, reqID string) {
	idx := strings.LastIndexByte(rest, ' ')
	if idx < 0 || idx+2 > len(rest) || rest[idx+1] != '@' {
		return rest, ""
	}
	id := rest[idx+2:]
	if id == "" {
		return rest, ""
	}
	return strings.TrimSpace(rest[:idx]), id
}
