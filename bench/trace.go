package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/randvar"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// span is one timed interval of the traced run. The spans of one request
// share Req. Client spans are on the generator's clock (ns since the paced
// phase began); twin spans are on the twin's own clock (ns since the replay
// of the phase began) — the twin runs after the server was stopped, so only
// their durations, not their positions, relate to the client spans.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Req     string `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	spans []span
	clock int64 // twin clock
}

func (t *tracer) add(parent int, req, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, req, name, start, end})
	return id
}

// request records request i of writer w: the client's spans from the
// generator's timestamps and the twin's stage spans beneath the same root.
func (t *tracer) request(w, i int, run *writerRun, st stageTimes) {
	req := fmt.Sprintf("w%d-%d", w, i)
	root := t.add(0, req, "client.request", run.due[i], run.dataAt[i])
	t.add(root, req, "client.write", run.sendStart[i], run.sent[i])
	t.add(root, req, "client.wait_ok", run.sent[i], run.okAt[i])
	t.add(root, req, "client.wait_data", run.sent[i], run.dataAt[i])
	c := t.clock
	t.add(root, req, "server.parse", c, c+st.parse)
	c += st.parse
	ing := t.add(root, req, "core.ingest", c, c+st.ingest)
	if st.walAppend > 0 {
		t.add(ing, req, "wal.append", c, c+st.walAppend)
	}
	c += st.ingest
	if st.walWait > 0 {
		t.add(root, req, "wal.wait_durable", c, c+st.walWait)
		c += st.walWait
	}
	t.add(root, req, "codec.append", c, c+st.render)
	t.clock = c + st.render
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]int64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := make(map[string]int64)
	for _, s := range t.spans {
		d := s.EndNs - s.StartNs
		// Client spans overlap one another (wait_data contains wait_ok), so
		// they keep their whole duration; only twin spans nest properly.
		if !strings.HasPrefix(s.Name, "client.") {
			d -= child[s.ID]
		}
		self[s.Name] += d
	}
	return self
}

func (t *tracer) write(path string, res *runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNs   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{res.Workload, res.Seed, t.selfTimes(), t.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// openTwinLog opens a WAL in a scratch directory inside the checkout: with
// the server's policy for the twin's commit hook on traced durable runs,
// with FsyncAlways for the device floor.
func openTwinLog(root string, policy wal.FsyncPolicy) (*wal.Log, string, error) {
	dir, err := os.MkdirTemp(buildDir(root), "twin-wal-")
	if err != nil {
		return nil, "", err
	}
	log, err := wal.Open(dir, wal.Options{Policy: policy})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return log, dir, nil
}

// twinMetrics turns the twin's summed stage times over the traced phase
// into the per-layer T metrics, and relates them to what the server's own
// command histogram reported.
func twinMetrics(res *runResult, sum stageTimes, requests int) {
	res.set("server.parse_ns_per_tuple", ratio(float64(sum.parse), float64(sum.tuples)))
	res.set("core.ingest_ns_per_tuple", ratio(float64(sum.ingest-sum.walAppend), float64(sum.tuples)))
	res.set("codec.append_ns_per_field", ratio(float64(sum.render), float64(sum.fields)))
	twinUs := ratio(float64(sum.parse+sum.ingest+sum.walWait+sum.render)/1e3, float64(requests))
	res.set("trace.coverage_frac", ratio(twinUs, res.Metrics["server.cmd_us"].Value))
	res.Samples["trace.coverage_frac"] = requests
}

// timeBudget is how long each kernel timer below may run.
const timeBudget = 100 * time.Millisecond

// kernelTimers times calls into single layers' exported functions, fed the
// fields of the workload's own requests. lines are the traced phase's.
func kernelTimers(res *runResult, o runOpts, lines [][]byte) error {
	wl := o.wl
	def := strings.Fields(wl.streams[0])
	schema, err := server.ParseStreamDef(def[0], def[1:])
	if err != nil {
		return err
	}
	const col = 1 // "v", the probabilistic column of every workload's stream

	// The workload's rows, and the raw S() samples among them.
	var tuples []*stream.Tuple
	var raw [][]float64
	for _, line := range lines {
		_, _, payload := splitRequest(line)
		var fields []randvar.Field
		for _, tok := range strings.Fields(payload)[1:] {
			if tok == "|" {
				continue
			}
			if body, ok := strings.CutPrefix(tok, "S("); ok {
				var obs []float64
				for _, p := range strings.Split(strings.TrimSuffix(body, ")"), ";") {
					v, err := strconv.ParseFloat(p, 64)
					if err != nil {
						return err
					}
					obs = append(obs, v)
				}
				raw = append(raw, obs)
			}
			f, err := server.ParseFieldSpec(tok)
			if err != nil {
				return err
			}
			if fields = append(fields, f); len(fields) == schema.Arity() {
				t, err := stream.NewTuple(schema, fields)
				if err != nil {
					return err
				}
				t.Seq = uint64(len(tuples) + 1)
				tuples = append(tuples, t)
				fields = nil
			}
		}
		if len(tuples) >= 2*wl.window && len(tuples) >= 4096 {
			break
		}
	}
	if len(tuples) == 0 {
		return fmt.Errorf("bench: traced phase of %s sent no requests", wl.name)
	}

	// learn: core.LearnField on each raw sample (wire-small only has any).
	if len(raw) > 0 {
		samples := make([]*learn.Sample, len(raw))
		for i, obs := range raw {
			samples[i] = learn.NewSample(obs)
		}
		t0 := time.Now()
		for _, s := range samples {
			if _, err := core.LearnField(learn.GaussianLearner{}, s); err != nil {
				return err
			}
		}
		res.set("learn.gaussian_ns", float64(time.Since(t0))/float64(len(samples)))
		res.Samples["learn.gaussian_ns"] = len(samples)
	}

	// stream: fill a twin window of the workload's size, then time pushes
	// into the full window and the aggregate scan over it.
	win, err := stream.NewColumnWindow(schema, wl.window)
	if err != nil {
		return err
	}
	for i := 0; i < wl.window; i++ {
		win.Push(tuples[i%len(tuples)])
	}
	t0 := time.Now()
	for _, t := range tuples {
		win.Push(t)
	}
	res.set("stream.window_push_ns", float64(time.Since(t0))/float64(len(tuples)))
	res.Samples["stream.window_push_ns"] = len(tuples)

	ev := randvar.NewEvaluator(dist.NewRand(1))
	var scratch []randvar.Field
	var scans int
	var last randvar.Field
	t0 = time.Now()
	for time.Since(t0) < timeBudget {
		if win.ColumnGaussian(col) {
			mu, s2, n := win.LinearUniformMoments([]int{col}, []float64{1 / float64(win.Len())})
			if last, err = randvar.GaussianResult(mu[0], s2[0], n[0]); err != nil {
				return err
			}
		} else {
			r, err := stream.AggregateColumn(ev, stream.Avg, win, col, &scratch)
			if err != nil {
				return err
			}
			last = r.Field
		}
		scans++
	}
	res.set("stream.window_scan_ns", float64(time.Since(t0))/float64(scans))
	res.Samples["stream.window_scan_ns"] = scans

	// accuracy: the interval computation on the aggregate's moments.
	n := max(last.N, 2)
	var calls int
	t0 = time.Now()
	for time.Since(t0) < timeBudget/4 {
		for i := 0; i < 64; i++ {
			if _, err := accuracy.ForSample(last.Dist.Mean(), math.Sqrt(last.Dist.Variance()), n, 0.9); err != nil {
				return err
			}
		}
		calls += 64
	}
	res.set("accuracy.interval_ns", float64(time.Since(t0))/float64(calls))
	res.Samples["accuracy.interval_ns"] = calls

	// wal: what a commit would wait for under -fsync always — Log.Append
	// with FsyncAlways in a scratch directory of this checkout's filesystem.
	// This sandbox's device, not a disk's; the server runs with durableFsync.
	if wl.durable {
		log, dir, err := openTwinLog(o.root, wal.FsyncAlways)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		defer log.Close()
		var appends int
		t0 = time.Now()
		for time.Since(t0) < 2*timeBudget {
			if _, err := log.Append(wal.RecInsert, lines[appends%len(lines)]); err != nil {
				return err
			}
			appends++
		}
		res.set("wal.append_sync_us", float64(time.Since(t0))/1e3/float64(appends))
		res.Samples["wal.append_sync_us"] = appends
	}
	return nil
}
