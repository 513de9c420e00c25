package main

// metricDef names one metric the benchmark prints. The lists below are the
// source BENCHMARK.json is checked against (TestManifestMatchesCode), so
// the file and the program cannot drift apart.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen
	floor              float64 // end-to-end only: absolute difference below which -compare says "same"
}

// endToEnd are the numbers a user of asdbd sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.05},
	{"tuples_per_s", "1/s", "higher", 0.25, 0},
	{"data_p10_us", "us", "lower", 0.25, 20},
	{"server_cpu_us_per_tuple", "us", "lower", 0.25, 0},
	{"server_rss_mb", "MB", "lower", 0.25, 2},
}

// perLayer are single layers' numbers: ungated, printed by the traced run.
var perLayer = []metricDef{
	{name: "client.rtt_p50_us", unit: "us", better: "lower"},
	{name: "client.data_p50_us", unit: "us", better: "lower"},
	{name: "client.data_p99_us", unit: "us", better: "lower"},
	{name: "client.late_frac", unit: "ratio", better: "lower"},
	{name: "client.disturbed_slices", unit: "count", better: "lower"},
	{name: "client.backlog_end", unit: "count", better: "lower"},
	{name: "client.data_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "server.cmd_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.data_lines_per_tuple", unit: "count", better: "lower"},
	{name: "server.slow_client_drops", unit: "count", better: "lower"},
	{name: "server.parse_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "codec.append_ns_per_field", unit: "ns", better: "lower"},
	{name: "learn.gaussian_ns", unit: "ns", better: "lower"},
	{name: "core.ingest_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "core.push_us", unit: "us", better: "lower"},
	{name: "core.shard_wait_us", unit: "us", better: "lower"},
	{name: "core.lock_retries_per_batch", unit: "count", better: "lower"},
	{name: "core.results_per_tuple", unit: "count", better: "lower"},
	{name: "stream.window_push_ns", unit: "ns", better: "lower"},
	{name: "stream.window_scan_ns", unit: "ns", better: "lower"},
	{name: "accuracy.interval_ns", unit: "ns", better: "lower"},
	{name: "bootstrap.kernel_us", unit: "us", better: "lower"},
	{name: "bootstrap.resamples_per_tuple", unit: "count", better: "lower"},
	{name: "parallel.dispatch_frac", unit: "ratio", better: "higher"},
	{name: "parallel.chunk_us", unit: "us", better: "lower"},
	{name: "plan.replayed_frac", unit: "ratio", better: "higher"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.fsync_us", unit: "us", better: "lower"},
	{name: "wal.fsyncs_per_tuple", unit: "count", better: "lower"},
	{name: "wal.coalesced_frac", unit: "ratio", better: "higher"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wal.append_sync_us", unit: "us", better: "lower"},
	{name: "checkpoint.save_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.saves", unit: "count", better: "lower"},
	{name: "checkpoint.bytes_per_save", unit: "B", better: "lower"},
	{name: "checkpoint.recovery_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.replayed_records", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "trace.coverage_frac", unit: "ratio", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: metric not in names.go: " + name)
}
