package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// Shape of one run. The capacity phase takes capacityShare of --seconds and
// the paced phase the rest; set-up is repeated and its median reported,
// because one start of a child process is too noisy to gate on.
const (
	runBlocks     = 4    // capacity + paced blocks per untraced run
	capacityShare = 0.25 // of each block
	// Set-up is repeated at least setupRepeats times, and up to
	// setupRepeatsMax while the repeats together stay under setupBudget: a
	// 10 ms set-up needs more repeats for a steady quartile than a 300 ms
	// one can afford.
	setupRepeats    = 3
	setupRepeatsMax = 25
	setupBudget     = 1000 * time.Millisecond
	// prefillBatch is the batch size used to fill windows during set-up; it
	// is independent of the workload's batch so large windows fill quickly.
	prefillBatch = 128
	// maxSamples bounds how many DATA lines one run keeps and decodes.
	maxSamples = 5000
)

type runOpts struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	scale   float64 // multiplies the paced rate; 1 except in the smoke test
	root    string  // checkout root
	bin     string  // asdbd binary
	outDir  string  // trace files
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Invalid   []string               `json:"invalid,omitempty"` // why the numbers must not be used
	Errors    []string               `json:"errors,omitempty"`  // what the correctness checks found
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"` // per-metric sample counts
	Shares    map[string]float64     `json:"layer_shares,omitempty"`
}

func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{v, unitOf(name)}
}

// prefillLines are one writer's window-filling requests and their batch size.
type prefillLines struct {
	lines [][]byte
	batch int
}

// live is one started, registered and prefilled server with its
// connections.
type live struct {
	srv     *serverProc
	conns   []*conn
	prefill *phase
	dataDir string
}

func (l *live) close() {
	for _, c := range l.conns {
		c.nc.Close()
	}
	if l.srv != nil {
		l.srv.kill()
	}
	if l.dataDir != "" {
		os.RemoveAll(l.dataDir)
	}
}

// setUp execs asdbd, registers the workload's streams and queries and fills
// every window, and returns the wall time from exec to the last prefill
// reply.
func setUp(o runOpts, prefill []prefillLines, sampleEvery int64) (_ *live, seconds float64, err error) {
	wl := o.wl
	l := &live{}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	t0 := time.Now()
	var extra []string
	if wl.durable {
		if l.dataDir, err = os.MkdirTemp(buildDir(o.root), "data-"+wl.name+"-"); err != nil {
			return nil, 0, err
		}
		extra = []string{"-data-dir", l.dataDir, "-fsync", durableFsync.String(), "-checkpoint-every", strconv.Itoa(wl.ckEvery)}
	}
	if l.srv, err = startServer(o.bin, extra...); err != nil {
		return nil, 0, err
	}
	for i := 0; i < wl.conns; i++ {
		c, err := dial(l.srv.addr, sampleEvery)
		if err != nil {
			return nil, 0, err
		}
		l.conns = append(l.conns, c)
	}
	for _, def := range wl.streams {
		if _, err := l.conns[0].cmd("STREAM " + def); err != nil {
			return nil, 0, err
		}
	}
	for _, q := range wl.queries {
		if _, err := l.conns[q.conn].cmd("QUERY " + q.id + " " + q.sql); err != nil {
			return nil, 0, err
		}
	}
	runs := make([]*writerRun, len(wl.writers))
	for w := range runs {
		runs[w] = newWriterRun(prefill[w].lines, nil, prefill[w].batch, 0)
	}
	if l.prefill, err = runPhase(wl, l.conns, runs, 0, nil); err != nil {
		return nil, 0, fmt.Errorf("prefill: %w\n%s", err, l.srv.tail())
	}
	return l, time.Since(t0).Seconds(), nil
}

// scrapePair is the server's published state before and after one paced
// stretch; the C metrics sum the differences over all pairs.
type scrapePair struct{ a, b scrape }

// scrape is the server's published state at one phase boundary.
type scrape struct {
	snap metrics.Snapshot
	mem  memStats
}

// metricsOf asks asdbd for its registry snapshot over the line protocol.
func metricsOf(c *conn) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	reply, err := c.cmd("METRICS")
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(reply, "OK ")), &snap); err != nil {
		return snap, fmt.Errorf("METRICS: %w", err)
	}
	return snap, nil
}

func takeScrape(l *live) (scrape, error) {
	var s scrape
	var err error
	if s.snap, err = metricsOf(l.conns[0]); err != nil {
		return s, err
	}
	s.mem, err = l.srv.memStats()
	return s, err
}

// runWorkload is one complete run: inputs from the seed, set-up, the timed
// phases, the reference and durability checks, and the metrics.
func runWorkload(o runOpts) (*runResult, error) {
	wl := o.wl
	res := &runResult{Workload: wl.name, Seed: o.seed, Trace: o.trace,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	for _, d := range perLayer {
		res.set(d.name, 0) // layers the workload does not reach report 0
	}
	if n := runtime.NumCPU(); wl.conns > n {
		return nil, fmt.Errorf("workload %s uses %d connections, the host has %d processors", wl.name, wl.conns, n)
	}
	nw := len(wl.writers)
	rate := wl.rate * o.scale / float64(nw) // per writer

	// The run is cut into blocks, each a closed-loop capacity stretch
	// followed by an open-loop paced stretch. This host switches between
	// full and roughly half speed for seconds at a time (measure.go); one
	// contiguous capacity phase would often sit wholly inside a slow spell.
	// The traced run has no capacity stretches: an untraced and a traced
	// paced half, so that the two can be compared within one run.
	nBlocks := runBlocks
	capSeconds := o.seconds / runBlocks * capacityShare
	pacedSeconds := o.seconds/runBlocks - capSeconds
	if o.trace {
		nBlocks, capSeconds, pacedSeconds = 2, 0, o.seconds/2
	}

	// Inputs. Every request line exists before the first server starts.
	prefill := make([]prefillLines, nw)
	capRuns := make([][]*writerRun, nBlocks)
	pacedRuns := make([][]*writerRun, nBlocks)
	var totalLines int64
	for w := 0; w < nw; w++ {
		g := newRequestGen(wl, w, o.seed)
		lpr := wl.batch * len(wl.queriesOn(w))
		pb := prefillBatch
		if wl.window < pb || wl.batch == 1 {
			pb = wl.batch
		}
		prefill[w] = prefillLines{g.lines(wl.window/pb, pb), pb}
		sched := rand.New(rand.NewSource(o.seed*7919 + int64(w)))
		for b := 0; b < nBlocks; b++ {
			if capSeconds > 0 {
				run := newWriterRun(g.lines(int(rate*wl.headroom*capSeconds), wl.batch), nil, wl.batch, lpr)
				capRuns[b] = append(capRuns[b], run)
				totalLines += int64(len(run.lines) * lpr)
			}
			due := poissonSchedule(sched, rate, pacedSeconds)
			run := newWriterRun(g.lines(len(due), wl.batch), due, wl.batch, lpr)
			if o.trace && b == 1 {
				run.sent = make([]int64, len(due))
			}
			pacedRuns[b] = append(pacedRuns[b], run)
			totalLines += int64(len(due) * lpr)
		}
	}
	sampleEvery := totalLines/maxSamples + 1

	// Set-up, repeated; the last server stays for the measurement.
	var l *live
	var setups []float64
	for t0 := time.Now(); len(setups) < setupRepeats || (len(setups) < setupRepeatsMax && time.Since(t0) < setupBudget); {
		if l != nil {
			l.close()
		}
		var s float64
		var err error
		if l, s, err = setUp(o, prefill, sampleEvery); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer func() { l.close() }()
	sort.Float64s(setups)
	res.set("setup_s", quantile(setups, 0.25)) // the better quartile, like every gated number (measure.go)
	res.Samples["setup_s"] = len(setups)

	phases := []*phase{l.prefill}
	var capPhases, pacedPhases []*phase
	var scrapes []scrapePair // one pair around every paced stretch
	fail := func(err error) error {
		return fmt.Errorf("%s: %w\nasdbd log tail:\n%s", wl.name, err, l.srv.tail())
	}
	for b := 0; b < nBlocks; b++ {
		if capSeconds > 0 {
			ph, err := runPhase(wl, l.conns, capRuns[b], time.Duration(capSeconds*float64(time.Second)), nil)
			if err != nil {
				return nil, fail(err)
			}
			phases = append(phases, ph)
			capPhases = append(capPhases, ph)
		}
		before, err := takeScrape(l)
		if err != nil {
			return nil, fail(err)
		}
		ph, err := runPhase(wl, l.conns, pacedRuns[b], time.Duration(pacedSeconds*float64(time.Second)), l.srv.cpuSeconds)
		if err != nil {
			return nil, fail(err)
		}
		after, err := takeScrape(l)
		if err != nil {
			return nil, fail(err)
		}
		phases = append(phases, ph)
		pacedPhases = append(pacedPhases, ph)
		scrapes = append(scrapes, scrapePair{before, after})
	}
	if len(capPhases) > 0 {
		capacityMetric(res, wl, capPhases)
	}
	clientMetrics(res, wl, pacedPhases, o.trace)
	counterMetrics(res, wl, scrapes, pacedPhases)
	if err := explainMetrics(res, l, wl); err != nil {
		return nil, fail(err)
	}
	rss, err := l.srv.peakRSSMB()
	if err != nil {
		return nil, fail(err)
	}
	res.set("server_rss_mb", rss)

	// Requests attempted and failed, over every phase.
	for _, ph := range phases {
		for _, run := range ph.runs {
			sent := int(run.nSent.Load())
			res.Attempted += sent
			res.Failed += run.errs + run.shortData + (sent - int(run.replies.Load()))
			if run.firstErr != "" {
				res.Errors = append(res.Errors, run.firstErr)
			}
		}
	}

	if wl.durable {
		if err := durabilityCheck(res, o, l, phases); err != nil {
			res.Errors = append(res.Errors, err.Error())
			res.Failed++
		}
	}
	l.srv.kill()

	// Reference check: the twin replays what was sent, phase by phase.
	var traced *phase
	if o.trace {
		traced = pacedPhases[1]
	}
	if err := referenceCheck(res, o, l, phases, traced); err != nil {
		res.Errors = append(res.Errors, err.Error())
		res.Failed = max(res.Failed, 1)
	}
	if o.trace {
		if err := kernelTimers(res, o, traced.runs[0].lines); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}

// durabilityCheck kills asdbd with SIGKILL while its clients are still
// connected, restarts it on the same data directory, and requires every
// acknowledged insert to be there. A process kill keeps the operating
// system's page cache, so this checks WAL replay, not power loss.
func durabilityCheck(res *runResult, o runOpts, l *live, phases []*phase) error {
	acked := make([]int64, len(o.wl.writers))
	for _, ph := range phases {
		for w, run := range ph.runs {
			acked[w] += (run.replies.Load() - int64(run.errs)) * int64(run.batch)
		}
	}
	l.srv.kill()
	t0 := time.Now()
	srv, err := startServer(o.bin, "-data-dir", l.dataDir, "-fsync", durableFsync.String(), "-checkpoint-every", strconv.Itoa(o.wl.ckEvery))
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	l.srv = srv
	c, err := dial(srv.addr, 1)
	if err != nil {
		return err
	}
	defer c.nc.Close()
	if _, err := c.cmd("PING"); err != nil {
		return err
	}
	res.set("checkpoint.recovery_ms", float64(time.Since(t0))/1e6)
	for w := range o.wl.writers {
		for _, q := range o.wl.queriesOn(w) {
			reply, err := c.cmd("STATS " + q.id)
			if err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			var st struct{ In int64 }
			if err := json.Unmarshal([]byte(strings.TrimPrefix(reply, "OK ")), &st); err != nil {
				return err
			}
			if st.In < acked[w] {
				return fmt.Errorf("durability: query %s holds %d tuples after kill -9 and restart, %d inserts were acknowledged", q.id, st.In, acked[w])
			}
		}
	}
	snap, err := metricsOf(c)
	if err != nil {
		return err
	}
	res.set("checkpoint.replayed_records", float64(snap.Counters["asdb_wal_replay_records_total"]))
	return nil
}

// referenceCheck replays every request that was sent through the twin, in
// the order the server saw them, and compares. On a traced run the replay
// of the traced phase also yields the twin spans and the T metrics.
func referenceCheck(res *runResult, o runOpts, l *live, phases []*phase, traced *phase) error {
	tw, err := newTwin(o.wl, l.conns)
	if err != nil {
		return err
	}
	var log *wal.Log
	if traced != nil && o.wl.durable {
		var dir string
		if log, dir, err = openTwinLog(o.root, durableFsync); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		defer log.Close()
	}
	tr := &tracer{}
	var sum stageTimes
	var requests int
	for _, ph := range phases {
		tw.log = nil
		if ph == traced {
			tw.log = log
		}
		for w, run := range ph.runs {
			n := int(run.nSent.Load())
			for i := 0; i < n; i++ {
				st, err := tw.replay(run.lines[i])
				if err != nil {
					return fmt.Errorf("twin: %w", err)
				}
				if ph == traced {
					sum.add(st)
					requests++
					tr.request(w, i, run, st)
				}
			}
		}
	}
	res.Samples["reference_checked_lines"] = tw.checked
	if err := tw.finish(); err != nil {
		return err
	}
	if traced == nil {
		return nil
	}
	twinMetrics(res, sum, requests)
	return tr.write(filepath.Join(o.outDir, "trace-"+o.wl.name+".json"), res)
}
