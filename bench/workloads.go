package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/wal"
)

// A workload is one traffic mix against one asdbd configuration. The names
// are the ones BENCHMARK.json lists; README.md records why each exists and
// which layer it is sized to stress.
type workload struct {
	name    string
	durable bool     // start asdbd with -data-dir and -fsync durableFsync
	ckEvery int      // -checkpoint-every (durable only)
	streams []string // STREAM command payloads, in registration order
	queries []querySpec
	writers []writerSpec
	conns   int     // client connections (≤ 2, host sizing)
	window  int     // rows per window; prefill pushes exactly this many per stream
	batch   int     // tuples per request (1 = plain INSERT)
	rate    float64 // paced phase, requests/s over all writers
	// headroom sizes the closed-loop stretches' pre-built request pool as a
	// multiple of the paced rate: about twice the capacity measured here,
	// because this host's speed varies by half between runs.
	headroom float64
	reqID    bool // suffix every request with a unique @reqid
	// tuple renders one tuple's field tokens. regime is the mean-shift
	// epoch the tuple falls in.
	tuple func(r *rand.Rand, regime int) string
}

type querySpec struct {
	conn   int // connection that registers (and therefore owns) the query
	id     string
	stream string // the stream the query reads
	sql    string
}

type writerSpec struct {
	conn   int
	stream string
}

// queriesOn returns the queries fed by writer w's stream: one tuple produces
// that many DATA lines once the window is full. Every workload keeps all
// queries of one stream on one connection, the first one's.
func (wl *workload) queriesOn(w int) []querySpec {
	var out []querySpec
	for _, q := range wl.queries {
		if q.stream == wl.writers[w].stream {
			out = append(out, q)
		}
	}
	return out
}

// durableFsync is the WAL policy of the durable workload: asdbd's default,
// a background fsync every 100 ms. Under "always" every gated number of
// commit-single was this sandbox's virtual disk and not the program: a bare
// 64-byte append + fsync on it has a median that wanders between 320 and
// 400 µs within twenty seconds and a floor that moves from 200 to 280 µs
// over minutes, so ten same-commit runs spread by 25–35 % whatever statistic
// was taken (baseline/spread-ten-seeds.txt, stage 5). What a commit would
// wait for under "always" stays visible, ungated, as wal.append_sync_us.
const durableFsync = wal.FsyncInterval

// regimeSeconds is how long, at the paced rate, a source keeps one mean
// before it shifts (Diao et al.'s regime changes, scaled to the run length).
const regimeSeconds = 3

func regimeMean(regime int) float64 { return 40 + 15*float64(regime%5) }

func ff(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// gaussTuple renders "key N(mu,s2,n)": a source that already learned its
// distribution from n observations, n uneven across sources.
func gaussTuple(r *rand.Rand, regime int) string {
	mu := regimeMean(regime) + r.NormFloat64()*4
	return fmt.Sprintf("%d N(%s,%s,%d)", r.Intn(1000), ff(mu), ff(4+r.Float64()*20), 3+r.Intn(48))
}

// mixedTuple is wire-small's row: half raw samples the server must learn
// from, half pre-learned Gaussians.
func mixedTuple(r *rand.Rand, regime int) string {
	if r.Intn(2) == 0 {
		return gaussTuple(r, regime)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d S(", r.Intn(1000))
	mu := regimeMean(regime)
	for i := 0; i < 10; i++ {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(ff(mu + r.NormFloat64()*5))
	}
	b.WriteByte(')')
	return b.String()
}

// histTuple renders "key H(6 edges|5 counts)": a non-Gaussian field, which
// forces Monte Carlo aggregation.
func histTuple(r *rand.Rand, regime int) string {
	lo := regimeMean(regime) - 25 + r.Float64()*5
	var b strings.Builder
	fmt.Fprintf(&b, "%d H(", r.Intn(1000))
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ff(lo + 10*float64(i)))
	}
	b.WriteByte('|')
	for i := 0; i < 5; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(1 + r.Intn(12)))
	}
	b.WriteByte(')')
	return b.String()
}

// avgQuery is the one query shape every workload uses, over its own stream,
// window and accuracy backend.
func avgQuery(conn int, id, streamName string, window int, backend string) querySpec {
	return querySpec{conn, id, streamName,
		fmt.Sprintf("SELECT AVG(v) AS a FROM %s WINDOW %d ROWS BACKEND %s", streamName, window, backend)}
}

func workloads() []*workload {
	fan := &workload{
		name: "fanout-shared", streams: []string{"s key v:dist"},
		writers: []writerSpec{{0, "s"}}, conns: 1,
		window: 1024, batch: 4, rate: 100, headroom: 8, tuple: gaussTuple,
	}
	for i := 0; i < 128; i++ {
		fan.queries = append(fan.queries, avgQuery(0, fmt.Sprintf("q%03d", i), "s", fan.window, "ANALYTICAL"))
	}
	return []*workload{
		{
			name: "wire-small", streams: []string{"s key v:dist"},
			queries: []querySpec{avgQuery(1, "q", "s", 256, "ANALYTICAL")},
			writers: []writerSpec{{0, "s"}}, conns: 2,
			window: 256, batch: 32, rate: 640, headroom: 8, tuple: mixedTuple,
		},
		{
			name: "commit-single", durable: true, ckEvery: 1024,
			streams: []string{"s0 key v:dist", "s1 key v:dist"},
			queries: []querySpec{avgQuery(0, "q0", "s0", 8, "ANALYTICAL"), avgQuery(1, "q1", "s1", 8, "ANALYTICAL")},
			writers: []writerSpec{{0, "s0"}, {1, "s1"}}, conns: 2,
			window: 8, batch: 1, rate: 4000, headroom: 15, reqID: true, tuple: gaussTuple,
		},
		{
			name: "scan-large", streams: []string{"s key v:dist"},
			queries: []querySpec{avgQuery(0, "q", "s", 32768, "ANALYTICAL")},
			writers: []writerSpec{{0, "s"}}, conns: 1,
			window: 32768, batch: 8, rate: 300, headroom: 8, tuple: gaussTuple,
		},
		{
			name: "kernel-mc", streams: []string{"s key v:dist"},
			queries: []querySpec{avgQuery(0, "q", "s", 32, "BOOTSTRAP")},
			writers: []writerSpec{{0, "s"}}, conns: 1,
			window: 32, batch: 4, rate: 100, headroom: 8, tuple: histTuple,
		},
		fan,
	}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// requestGen renders request lines for one writer. Lines end in '\n' so the
// timed phases write them as they are.
type requestGen struct {
	wl     *workload
	stream string
	r      *rand.Rand
	tuples int // rendered so far; drives the regime
	regime int // tuples per regime
	tag    string
	seq    int
}

func newRequestGen(wl *workload, w int, seed int64) *requestGen {
	return &requestGen{
		wl: wl, stream: wl.writers[w].stream,
		// Distinct substreams per writer keep two writers from sending the
		// same rows.
		r:      rand.New(rand.NewSource(seed*1000003 + int64(w))),
		tag:    fmt.Sprintf("w%d", w),
		regime: int(wl.rate/float64(len(wl.writers))*float64(wl.batch)*regimeSeconds) + 1,
	}
}

func (g *requestGen) next(batch int) []byte {
	var b strings.Builder
	if batch == 1 {
		b.WriteString("INSERT ")
	} else {
		b.WriteString("INSERTBATCH ")
	}
	b.WriteString(g.stream)
	for i := 0; i < batch; i++ {
		if i > 0 {
			b.WriteString(" |")
		}
		b.WriteByte(' ')
		b.WriteString(g.wl.tuple(g.r, g.tuples/g.regime))
		g.tuples++
	}
	if g.wl.reqID {
		g.seq++
		fmt.Fprintf(&b, " @%s-%d", g.tag, g.seq)
	}
	b.WriteByte('\n')
	return []byte(b.String())
}

func (g *requestGen) lines(n, batch int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.next(batch)
	}
	return out
}

// poissonSchedule draws request due times (ns from phase start) with
// exponential gaps at rate req/s, up to horizon seconds.
func poissonSchedule(r *rand.Rand, rate, horizon float64) []int64 {
	var due []int64
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= horizon {
			return due
		}
		due = append(due, int64(t*1e9))
	}
}
