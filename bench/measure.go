package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// The paced stretches are read in slices of sliceNs. This host is a small
// virtual machine that runs in one of two gears: for seconds at a time the
// same work takes about 1.7 times as long (scan-large's capacity slices read
// either ≈ 7 500 or ≈ 4 300 tuples/s, little in between; a fixed memory scan
// run alongside slows 1.6–1.8× in such a spell, pure arithmetic 1.1–1.2×, so
// it is the memory system that neighbours take) and every ten seconds or so
// it stalls outright for 20–60 ms. Both disturbances only ever slow things
// down, and a statistic over the whole run lands wherever the mix of gears
// put it. So each slice yields its own latencies, its own CPU cost per tuple
// and its own throughput; a slice in which the generator itself was stalled
// (more than 1 % of its sends late) is set aside as disturbed; and a run
// reports the better quartile of its clean slices — the 25th percentile of
// CPU cost, the 75th of throughput: the machine's fast gear, provided a
// quarter of the run was spent in it. A change that makes asdbd slower
// moves every slice, and with them the quartile. Disturbed slices are
// counted, not hidden: client.late_frac covers the whole run, and a run with
// fewer clean slices than half is marked invalid.
//
// Latency needs more than that. In an open loop a request that arrives
// during a slow moment also waits for the ones before it, so the median of
// even the best second carries the host's mood: ten same-commit runs of
// scan-large read medians of 1058 … 2068 µs (quartile distance 60 % of the
// median) where the 10th percentile of each run's best second read 934 …
// 1074 µs (7.5 %); on the other four workloads the two spreads were 7.7/4.4,
// 24.8/8.1, 19.7/3.6 and 10.4/7.3 % (baseline/spread-ten-seeds.txt, stage
// 5). The gated latency is therefore data_p10_us, the time to DATA of a
// request that met no queue and no disturbance — the part of the latency the
// program decides — and the median over the whole paced traffic is printed
// ungated, as client.data_p50_us, beside client.data_p99_us.
const sliceNs = int64(time.Second)

// capSliceNs slices the shorter capacity phase more finely.
const capSliceNs = int64(250 * time.Millisecond)

// lateNs is how far after its due time a send counts as late. It is just
// above the kernel's scheduler tick (4 ms at HZ=250): with everything this
// file and client.go do for punctuality, one or two wake-ups in a hundred
// still wait for the next tick, on an undisturbed host too, while a stall
// imposed from outside the machine lasts tens of milliseconds. Lateness
// below the threshold is not lost: requests are timed from their due time.
const lateNs = int64(5 * time.Millisecond)

// slice is what one sliceNs of a paced phase held.
type slice struct {
	sent, late int
	lat        []float64 // µs from due time to last DATA line
	cpu        float64   // server CPU seconds spent in the slice
}

func (s *slice) clean() bool {
	return s.sent > 0 && float64(s.late) <= 0.01*float64(s.sent)
}

// slicesOf sorts paced stretches' requests into slices by due time and adds
// each slice's share of the server's CPU time from the stretch's samples.
func slicesOf(phases []*phase) []slice {
	var all []slice
	for _, ph := range phases {
		n := len(ph.cpuSamples) - 1
		out := make([]slice, n)
		for k := range out {
			out[k].cpu = ph.cpuSamples[k+1] - ph.cpuSamples[k]
		}
		for _, run := range ph.runs {
			for i := 0; i < int(run.nSent.Load()); i++ {
				k := int(run.due[i] / ph.sliceNs)
				if k >= n {
					continue // due after the last whole slice
				}
				s := &out[k]
				s.sent++
				if run.sendStart[i]-run.due[i] > lateNs {
					s.late++
				}
				if run.dataAt[i] != 0 {
					s.lat = append(s.lat, float64(run.dataAt[i]-run.due[i])/1e3)
				}
			}
		}
		for k := range out {
			sort.Float64s(out[k].lat)
		}
		all = append(all, out...)
	}
	return all
}

// sliceStats reduces slices to the per-slice 10th-percentile latencies and
// CPU costs of the clean ones, plus every latency sample in them.
func sliceStats(slices []slice, wl *workload) (p10s, cpus, all []float64, nClean int) {
	for _, s := range slices {
		if s.clean() {
			nClean++
		}
	}
	for _, s := range slices {
		// With no clean slice at all the (invalid) run reports over every
		// slice, so that its numbers are at least not zero.
		if s.sent == 0 || (nClean > 0 && !s.clean()) {
			continue
		}
		p10s = append(p10s, quantile(s.lat, 0.1))
		cpus = append(cpus, s.cpu*1e6/float64(s.sent*wl.batch))
		all = append(all, s.lat...)
	}
	sort.Float64s(p10s)
	sort.Float64s(cpus)
	sort.Float64s(all)
	return p10s, cpus, all, nClean
}

// clientMetrics derives the generator-side numbers from the paced
// stretches: ingest→DATA latency from each request's due time, the server's
// CPU cost per tuple, and the generator's own health. On a traced run the
// first stretch is the untraced half and the second the traced one.
func clientMetrics(res *runResult, wl *workload, phases []*phase, trace bool) {
	untraced := phases
	if trace {
		untraced = phases[:1]
	}
	slices := slicesOf(untraced)
	p10s, cpus, all, nClean := sliceStats(slices, wl)
	var rtt []float64
	var late, backlog, sent, tuples int
	var dataBytes int64
	for _, ph := range untraced {
		for _, run := range ph.runs {
			n := int(run.nSent.Load())
			sent += n
			tuples += n * wl.batch
			dataBytes += run.dataBytes
			for i := 0; i < n; i++ {
				if run.sendStart[i]-run.due[i] > lateNs {
					late++
				}
				if run.sendStart[i] > ph.horizonNs+lateNs {
					// Still unsent well after the stretch's nominal end: a
					// stall in its last moments. Reported, not a reason to
					// discard the run — a backlog that grows because the rate
					// is too high makes every slice late, which is.
					backlog++
				}
				if run.okAt[i] != 0 {
					rtt = append(rtt, float64(run.okAt[i]-run.sendStart[i])/1e3)
				}
			}
		}
	}
	sort.Float64s(rtt)
	res.set("data_p10_us", quantile(p10s, 0)) // the best slice
	res.set("server_cpu_us_per_tuple", quantile(cpus, 0.25))
	res.set("client.data_p50_us", quantile(all, 0.50))
	res.set("client.data_p99_us", quantile(all, 0.99))
	res.set("client.rtt_p50_us", quantile(rtt, 0.50))
	res.set("client.late_frac", ratio(float64(late), float64(sent)))
	res.set("client.disturbed_slices", float64(len(slices)-nClean))
	res.set("client.backlog_end", float64(backlog))
	res.set("client.data_bytes_per_tuple", ratio(float64(dataBytes), float64(tuples)))
	res.Samples["data_p10_us"] = len(all)
	res.Samples["client.data_p50_us"] = len(all)
	res.Samples["client.data_p99_us"] = len(all)
	res.Samples["server_cpu_us_per_tuple"] = len(cpus)
	res.Samples["client.rtt_p50_us"] = len(rtt)
	if 2*nClean < len(slices) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("only %d of %d slices clean (client.late_frac %.4f): the generator could not keep its schedule",
			nClean, len(slices), ratio(float64(late), float64(sent))))
	}
	if trace {
		traced, _, _, _ := sliceStats(slicesOf(phases[1:]), wl)
		res.set("trace.overhead_frac", ratio(quantile(traced, 0), quantile(p10s, 0)))
	}
}

// capacityMetric reads tuples_per_s off the closed-loop stretches:
// acknowledged tuples per capSliceNs, upper quartile over all slices.
func capacityMetric(res *runResult, wl *workload, phases []*phase) {
	var rates []float64
	total := 0
	for _, ph := range phases {
		// A stretch shorter than a slice is one slice, up to its last reply.
		width, n := capSliceNs, int(ph.endNs/capSliceNs)
		if n == 0 {
			width, n = 1, 1
			for _, run := range ph.runs {
				if r := run.replies.Load(); r > 0 {
					width = max(width, run.okAt[r-1]+1)
				}
			}
		}
		acked := make([]float64, n)
		for _, run := range ph.runs {
			replies := int(run.replies.Load())
			total += replies - run.errs
			for i := 0; i < replies; i++ {
				if k := int(run.okAt[i] / width); k < n {
					acked[k] += float64(wl.batch)
				}
			}
			if int(run.nSent.Load()) == len(run.lines) {
				res.Invalid = append(res.Invalid, "a capacity stretch ran out of pre-built requests")
			}
		}
		for _, a := range acked {
			rates = append(rates, a/(float64(width)/1e9))
		}
	}
	sort.Float64s(rates)
	res.set("tuples_per_s", quantile(rates, 0.75))
	res.Samples["tuples_per_s"] = total * wl.batch
}

// hdelta sums a histogram's growth in Sum and Count over the scrape pairs.
func hdelta(pairs []scrapePair, name string) (sum float64, count float64) {
	for _, p := range pairs {
		sum += p.b.snap.Histograms[name].Sum - p.a.snap.Histograms[name].Sum
		count += float64(p.b.snap.Histograms[name].Count - p.a.snap.Histograms[name].Count)
	}
	return sum, count
}

// cdelta sums a counter's growth over the scrape pairs.
func cdelta(pairs []scrapePair, name string) float64 {
	var d float64
	for _, p := range pairs {
		d += float64(p.b.snap.Counters[name] - p.a.snap.Counters[name])
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics differences the counters asdbd already publishes across
// the paced phase. Nothing here is instrumentation added for the benchmark.
func counterMetrics(res *runResult, wl *workload, pairs []scrapePair, phases []*phase) {
	var sent int
	var userBytes int64
	for _, ph := range phases {
		for _, run := range ph.runs {
			n := int(run.nSent.Load())
			sent += n
			for _, line := range run.lines[:n] {
				userBytes += int64(len(line))
			}
		}
	}
	tuples := float64(sent * wl.batch)

	cmdSum, cmdN := hdelta(pairs, "asdb_server_cmd_seconds")
	pushSum, pushN := hdelta(pairs, "asdb_query_push_seconds")
	appSum, appN := hdelta(pairs, "asdb_wal_append_seconds")
	fsSum, fsN := hdelta(pairs, "asdb_wal_fsync_seconds")
	ckSum, ckN := hdelta(pairs, "asdb_checkpoint_save_seconds")
	waitSum, waitN := hdelta(pairs, "asdb_ingest_shard_wait_seconds")
	kernSum, kernN := hdelta(pairs, "asdb_bootstrap_kernel_seconds")
	chunkSum, chunkN := hdelta(pairs, "asdb_parallel_chunk_seconds")
	engTuples := cdelta(pairs, "asdb_engine_tuples_total")

	res.set("server.cmd_us", ratio(cmdSum*1e6, cmdN))
	res.set("server.self_us", ratio((cmdSum-pushSum-appSum)*1e6, cmdN))
	res.set("server.data_lines_per_tuple", ratio(cdelta(pairs, "asdb_server_data_lines_total"), engTuples))
	drops := cdelta(pairs, "asdb_server_slow_client_drops_total")
	res.set("server.slow_client_drops", drops)
	if drops > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("server.slow_client_drops %v: the generator did not drain its DATA lines", drops))
	}
	res.set("core.push_us", ratio(pushSum*1e6, pushN))
	res.set("core.shard_wait_us", ratio(waitSum*1e6, waitN))
	res.set("core.lock_retries_per_batch", ratio(cdelta(pairs, "asdb_ingest_shard_lock_retries_total"), cdelta(pairs, "asdb_ingest_batches_total")))
	res.set("core.results_per_tuple", ratio(cdelta(pairs, "asdb_query_results_total"), engTuples))
	res.set("bootstrap.kernel_us", ratio(kernSum*1e6, kernN))
	res.set("bootstrap.resamples_per_tuple", ratio(cdelta(pairs, "asdb_bootstrap_resamples_total"), engTuples))
	disp, inl := cdelta(pairs, "asdb_parallel_dispatch_total"), cdelta(pairs, "asdb_parallel_inline_total")
	res.set("parallel.dispatch_frac", ratio(disp, disp+inl))
	res.set("parallel.chunk_us", ratio(chunkSum*1e6, chunkN))
	res.set("wal.append_us", ratio(appSum*1e6, appN))
	res.set("wal.fsync_us", ratio(fsSum*1e6, fsN))
	res.set("wal.fsyncs_per_tuple", ratio(cdelta(pairs, "asdb_wal_fsync_total"), engTuples))
	res.set("wal.coalesced_frac", ratio(cdelta(pairs, "asdb_wal_sync_coalesced_total"), cdelta(pairs, "asdb_wal_sync_wait_total")))
	res.set("wal.bytes_per_user_byte", ratio(cdelta(pairs, "asdb_wal_append_bytes_total"), float64(userBytes)))
	res.set("checkpoint.save_ms", ratio(ckSum*1e3, ckN))
	res.set("checkpoint.saves", ckN)
	res.set("checkpoint.bytes_per_save", ratio(cdelta(pairs, "asdb_checkpoint_save_bytes_total"), cdelta(pairs, "asdb_checkpoint_saves_total")))
	var alloc, gcs float64
	for _, p := range pairs {
		alloc += float64(p.b.mem.TotalAlloc - p.a.mem.TotalAlloc)
		gcs += float64(p.b.mem.NumGC - p.a.mem.NumGC)
	}
	res.set("proc.alloc_bytes_per_tuple", ratio(alloc, tuples))
	res.set("proc.gc_cycles", gcs)
	res.Samples["server.cmd_us"] = int(cmdN)
	res.Samples["core.push_us"] = int(pushN)
	res.Samples["wal.fsync_us"] = int(fsN)
	res.Samples["bootstrap.kernel_us"] = int(kernN)

	// Shares of the server's command time, from its own histograms: where a
	// request's time goes inside asdbd. server.self is what is left after
	// the engine and the log: parse, learn, render, outbox, socket. The
	// log's fsync is not taken out: under durableFsync it runs in the
	// background, and a command meets it only as a wait for the log's lock.
	if cmdSum > 0 {
		res.Shares = map[string]float64{
			"server.self": (cmdSum - pushSum - appSum) / cmdSum,
			"core.push":   pushSum / cmdSum,
			"wal.append":  appSum / cmdSum,
		}
	}
}

var sharedGroupRE = regexp.MustCompile(`(\d+) emissions computed, (\d+) replayed`)

// explainMetrics reads the planner's sharing tallies. One EXPLAIN … TIMING
// at the end of the run reads totals since registration; asking earlier
// would switch the query's stage timers on for the timed phases.
func explainMetrics(res *runResult, l *live, wl *workload) error {
	q := wl.queries[0]
	reply, err := l.conns[q.conn].cmd("EXPLAIN " + q.id + " TIMING")
	if err != nil {
		return err
	}
	m := sharedGroupRE.FindStringSubmatch(reply)
	if m == nil {
		return fmt.Errorf("EXPLAIN %s TIMING: no shared-group line in %q", q.id, reply)
	}
	computed, _ := strconv.ParseFloat(m[1], 64)
	replayed, _ := strconv.ParseFloat(m[2], 64)
	res.set("plan.replayed_frac", ratio(replayed, computed+replayed))
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
