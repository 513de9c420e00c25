package core

import (
	"errors"
	"strings"
	"time"

	"repro/internal/stream"
)

// A route is one stream's compiled ingest plan: what IngestBatch walks for
// every batch of the stream, so the per-batch work is the pushes alone. It
// is compiled at RegisterStream and recompiled by Bind and Unbind for every
// stream they touch; both run with no ingest in flight (under Exclusive, or
// single-threaded), and IngestBatch reads the route under the stream's
// shard lock.
type route struct {
	// groups are the plan groups of the stream's aggregate queries, in the
	// order of their first member in streamDef.queries.
	groups []routeGroup
	// others are the scalar and join queries, which push on their own.
	others []routeSlot
	// lock is the stream's lock group (lockGroupOf).
	lock []*streamDef
	// members counts the queries of all groups.
	members int
}

// routeGroup is one plan group and its bound members in query-id order; the
// first member leads.
type routeGroup struct {
	g       *sharedGroup
	members []routeSlot
}

// routeSlot is one bound query and the index of its QueryResults in an
// IngestBatch result (its position in streamDef.queries).
type routeSlot struct {
	q    *Query
	slot int
}

// compileRoute builds sd's route from its bound queries and their groups.
func compileRoute(sd *streamDef) *route {
	r := &route{lock: lockGroupOf(sd)}
	at := make(map[*sharedGroup]int)
	for i, bq := range sd.queries {
		s := routeSlot{q: bq.q, slot: i}
		g := bq.q.group
		if g == nil {
			r.others = append(r.others, s)
			continue
		}
		k, ok := at[g]
		if !ok {
			k = len(r.groups)
			at[g] = k
			r.groups = append(r.groups, routeGroup{g: g})
		}
		r.groups[k].members = append(r.groups[k].members, s)
		r.members++
	}
	return r
}

// batchOut is one ingest batch's per-query output under construction,
// indexed by route slot.
type batchOut struct {
	out  []QueryResults
	errs [][]error
}

func (b *batchOut) fail(slot int, err error) {
	if b.errs == nil {
		b.errs = make([][]error, len(b.out))
	}
	b.errs[slot] = append(b.errs[slot], err)
}

// finish joins each query's push errors into its Err, in tuple order.
func (b *batchOut) finish() {
	for i, errs := range b.errs {
		if len(errs) == 0 {
			continue
		}
		msgs := make([]string, len(errs))
		for j, err := range errs {
			msgs[j] = err.Error()
		}
		b.out[i].Err = errors.New(strings.Join(msgs, "; "))
	}
}

// step runs a batch through a plan group chunk by chunk. The leader's filter
// verdict stands for every member: a shared filter draws nothing, and one
// that may draw has its query alone. A chunk ends at the width-th admitted
// tuple: stream.AheadWidth for a shareable query's count window, as taking
// such verdicts early moves no draw, else one. lookAhead scans the windows
// the chunk leaves, then per tuple compute admits it and each member replays
// it into its slot of b. A chunk's clock pair is booked on the push
// histogram as members × tuples pushes of equal share.
func (g *sharedGroup) step(members []routeSlot, tuples []*stream.Tuple, b *batchOut, recovering bool) {
	lead := members[0].q
	width := 1
	if g.win != nil && lead.prof.Shareable {
		width = stream.AheadWidth
	}
	k := uint64(len(members))
	for len(tuples) > 0 {
		var t0 time.Time
		if !recovering {
			t0 = time.Now()
		}
		g.verdicts, g.chunk, g.lanes = g.verdicts[:0], g.chunk[:0], g.lanes[:0]
		for _, t := range tuples {
			if len(g.chunk) == width {
				break
			}
			adm, err := lead.filter(t)
			g.verdicts = append(g.verdicts, verdict{adm, err})
			if err == nil && !adm.drop {
				g.chunk = append(g.chunk, t)
			}
		}
		g.lookAhead(lead)
		n := uint64(len(g.verdicts))
		var results uint64
		lane := 0
		for i, t := range tuples[:n] {
			em := &g.em
			em.reset()
			em.adm, em.filterErr = g.verdicts[i].adm, g.verdicts[i].err
			if em.filterErr == nil && !em.adm.drop {
				g.compute(lead, t, em, lane)
				lane++
			}
			for _, m := range members {
				m.q.stats.in.Add(1)
				res, ok, err := m.q.replay(em, t)
				switch {
				case err != nil:
					b.fail(m.slot, err)
				case ok:
					b.out[m.slot].Results = append(b.out[m.slot].Results, res)
					results++
				}
			}
			if em.handedOut > 0 && !recovering {
				observeEmission(em.infos, em.res.tupleProb, em.handedOut)
			}
		}
		tuples = tuples[n:]
		g.leads.Add(n)
		g.follows.Add((k - 1) * n)
		if recovering {
			mRecoveryPushes.Add(k * n)
			continue
		}
		mPushes.Add(k * n)
		mResults.Add(results)
		hPush.ObserveN(time.Since(t0).Seconds()/float64(k*n), k*n)
	}
}
