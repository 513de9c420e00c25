package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sql"
)

// Node is one shard of the cluster: a primary that takes writes and zero
// or more read replicas following it.
type Node struct {
	Primary  string
	Replicas []string
}

// hash64 is FNV-1a; allocation-free (hash/fnv would escape the string).
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvousPick returns the index of the node owning key under
// highest-random-weight hashing: every client and router computes the same
// owner with no coordination, and removing a node only moves the keys it
// owned.
func rendezvousPick(nodes []Node, key string) int {
	best, bestW := 0, uint64(0)
	kh := hash64(key)
	for i := range nodes {
		w := mix64(hash64(nodes[i].Primary) ^ kh)
		if i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// streamMove is a pending re-home: replay ddl ("name col[:dist]...") on
// node before routing the query that forced the move.
type streamMove struct {
	stream string
	ddl    string
	node   int
}

// topo tracks stream placement. Streams start where rendezvous hashing
// puts them; a JOIN merges its two inputs' groups (union-find) onto one
// node, re-homing a group only while it is clean — no routed ingest yet —
// because moving a stream that already holds tuples would need state
// migration, not just DDL replay. One instance per Router; placement is
// deterministic, so independent routers agree on everything except
// clean-group join moves, which are an optimization clients must not
// interleave across routers.
type topo struct {
	nodes []Node
	rr    atomic.Uint32 // read fan-out round-robin cursor

	mu      sync.Mutex
	parent  map[string]string   // union-find, keyed by stream name
	members map[string][]string // root -> streams in the group
	home    map[string]int      // root -> node index
	ddl     map[string]string   // stream -> STREAM args for replay
	dirty   map[string]bool     // stream -> has taken routed ingest
	queries map[string]int      // query id -> node index
}

func newTopo(nodes []Node) (*topo, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n.Primary == "" {
			return nil, fmt.Errorf("cluster: node with empty primary address")
		}
		if seen[n.Primary] {
			return nil, fmt.Errorf("cluster: duplicate primary %s", n.Primary)
		}
		seen[n.Primary] = true
	}
	return &topo{
		nodes:   nodes,
		parent:  make(map[string]string),
		members: make(map[string][]string),
		home:    make(map[string]int),
		ddl:     make(map[string]string),
		dirty:   make(map[string]bool),
		queries: make(map[string]int),
	}, nil
}

// find with path compression; unseen names become singleton groups.
func (t *topo) find(x string) string {
	p, ok := t.parent[x]
	if !ok {
		t.parent[x] = x
		t.members[x] = []string{x}
		return x
	}
	if p == x {
		return x
	}
	root := t.find(p)
	t.parent[x] = root
	return root
}

// registerStream places a stream (idempotent) and returns its node.
func (t *topo) registerStream(name, ddl string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.find(name)
	if _, ok := t.home[root]; !ok {
		t.home[root] = rendezvousPick(t.nodes, root)
	}
	if _, ok := t.ddl[name]; !ok {
		t.ddl[name] = ddl
	}
	return t.home[root]
}

// streamNode returns the node owning a registered stream.
func (t *topo) streamNode(name string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.ddl[name]; !ok {
		return 0, false
	}
	return t.home[t.find(name)], true
}

// markDirty records that a stream's group has taken routed ingest — from
// now on the group is pinned to its node. Marked before the first insert
// is sent, not after it succeeds: a torn reply may hide an applied write.
func (t *topo) markDirty(name string) {
	t.mu.Lock()
	t.dirty[name] = true
	t.mu.Unlock()
}

func (t *topo) groupDirtyLocked(root string) bool {
	for _, s := range t.members[root] {
		if t.dirty[s] {
			return true
		}
	}
	return false
}

// placeQuery resolves the node for a query, merging the join inputs'
// groups if needed. The returned moves (possibly empty) are DDL replays
// the caller must perform on the target node before registering the query
// there. Unregistered streams are an error: placement cannot invent
// schemas. A query id names one query in the cluster: an id already placed
// is refused before any move, and a new one is reserved until the caller
// drops it because no backend took the query.
func (t *topo) placeQuery(id, sqlText string) (int, []streamMove, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return 0, nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.queries[id]; dup {
		return 0, nil, fmt.Errorf("query id %q already in use", id)
	}
	streams := []string{stmt.From}
	if stmt.Join != nil {
		streams = append(streams, stmt.Join.Right)
	}
	for _, s := range streams {
		if _, ok := t.ddl[s]; !ok {
			return 0, nil, fmt.Errorf("cluster: query %s references unregistered stream %s", id, s)
		}
	}
	if len(streams) == 1 || t.find(streams[0]) == t.find(streams[1]) {
		n := t.home[t.find(streams[0])]
		t.queries[id] = n
		return n, nil, nil
	}

	ra, rb := t.find(streams[0]), t.find(streams[1])
	na, nb := t.home[ra], t.home[rb]
	da, db := t.groupDirtyLocked(ra), t.groupDirtyLocked(rb)
	var target int
	switch {
	case na == nb:
		target = na
	case da && db:
		return 0, nil, fmt.Errorf(
			"cluster: cannot co-locate %s (node %d) with %s (node %d): both groups already have ingested data on different nodes",
			streams[0], na, streams[1], nb)
	case da:
		target = na
	case db:
		target = nb
	default:
		// Both clean: deterministic pick so independent planners agree.
		canon := ra
		if rb < ra {
			canon = rb
		}
		target = t.home[canon]
	}

	var moves []streamMove
	for _, root := range []string{ra, rb} {
		if t.home[root] == target {
			continue
		}
		for _, s := range t.members[root] {
			moves = append(moves, streamMove{stream: s, ddl: t.ddl[s], node: target})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].stream < moves[j].stream })

	// Union: smaller root becomes canonical, group homed at target.
	lo, hi := ra, rb
	if hi < lo {
		lo, hi = hi, lo
	}
	t.parent[hi] = lo
	t.members[lo] = append(t.members[lo], t.members[hi]...)
	delete(t.members, hi)
	delete(t.home, hi)
	t.home[lo] = target
	t.queries[id] = target
	return target, moves, nil
}

// queryNode returns the node a query was placed on.
func (t *topo) queryNode(id string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.queries[id]
	return n, ok
}

func (t *topo) dropQuery(id string) {
	t.mu.Lock()
	delete(t.queries, id)
	t.mu.Unlock()
}

// primaryAddr is the write address for a node.
func (t *topo) primaryAddr(node int) string { return t.nodes[node].Primary }

// readAddr picks a read target for a node: round-robin over its replicas,
// falling back to the primary when it has none. Replicas serve reads with
// bounded staleness (replication lag); callers needing read-your-writes go
// to the primary.
func (t *topo) readAddr(node int) string {
	reps := t.nodes[node].Replicas
	if len(reps) == 0 {
		return t.nodes[node].Primary
	}
	i := t.rr.Add(1)
	return reps[int(i-1)%len(reps)]
}

// failoverAddrs lists ingest targets in retry order: primary first, then
// replicas (a retry landing on an unpromoted replica gets "read-only
// replica" and moves on; after promotion it is answered — from the
// replicated dedup window if the original attempt already applied).
func (t *topo) failoverAddrs(node int) []string {
	n := t.nodes[node]
	out := make([]string, 0, 1+len(n.Replicas))
	out = append(out, n.Primary)
	out = append(out, n.Replicas...)
	return out
}
