package core

import (
	"math"
	"sync"

	"repro/internal/accuracy"
	"repro/internal/metrics"
)

// Engine-level and query-level observability. Everything in this file is
// observation-only: instruments read values the query pipeline already
// computed and never feed anything back, so the engine stays bit-identical
// with instrumentation present.
var (
	mTuples = metrics.Default.Counter("asdb_engine_tuples_total",
		"tuples constructed via Engine.NewTuple")
	mStreams = metrics.Default.Counter("asdb_engine_streams_total",
		"streams registered")
	mCompiled = metrics.Default.Counter("asdb_engine_queries_compiled_total",
		"continuous queries compiled successfully")
	mPushes = metrics.Default.Counter("asdb_query_push_total",
		"tuples pushed into continuous queries")
	mResults = metrics.Default.Counter("asdb_query_results_total",
		"result tuples emitted by continuous queries")
	hPush = metrics.Default.Histogram("asdb_query_push_seconds",
		"wall time of one Query.Push call", metrics.DefBuckets)
	mRecoveryPushes = metrics.Default.Counter("asdb_query_recovery_push_total",
		"tuples replayed into queries during WAL recovery (segregated from asdb_query_push_total)")

	// Global accuracy telemetry: the live distribution of interval widths
	// the engine is reporting, the paper's figure of merit ("the smaller an
	// interval is, the more accurate the query result is").
	hMeanHW = metrics.Default.Histogram("asdb_accuracy_mean_ci_halfwidth",
		"half-widths of reported mean confidence intervals", accuracyWidthBuckets)
	hTupleProbW = metrics.Default.Histogram("asdb_accuracy_tuple_prob_width",
		"widths of reported tuple-probability intervals", probWidthBuckets)
	gLastDF = metrics.Default.Gauge("asdb_accuracy_last_df_n",
		"d.f. sample size of the most recently decorated field")

	// Load-shedding telemetry: the current degradation level and how many
	// accuracy computations ran with a reduced resample budget.
	gDegrade = metrics.Default.Gauge("asdb_degrade_level",
		"current accuracy-degradation (load-shedding) level; 0 = full accuracy")
	mShedEvals = metrics.Default.Counter("asdb_query_shed_evals_total",
		"accuracy computations evaluated with a shed (reduced) resample budget")
)

// accuracyWidthBuckets spans the CI half-widths seen across the paper's
// experiments (sensor readings ~N(µ, 1..16), n from a handful to thousands).
var accuracyWidthBuckets = []float64{0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// probWidthBuckets spans [0, 1] tuple-probability interval widths.
var probWidthBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8, 1}

// telemetryRing is a fixed-size ring of recent observations plus running
// aggregates over everything ever observed. Rings are written during Push
// (under the query's shard lock) and snapshotted by METRICS from arbitrary
// connections, so queryTelemetry guards them with its own mutex.
const telemetryRingSize = 64

type telemetryRing struct {
	buf   [telemetryRingSize]float64
	n     int // filled slots, ≤ telemetryRingSize
	next  int // insertion cursor
	count uint64
	last  float64
	min   float64
	max   float64
	sum   float64 // running sum over all observations
}

func (r *telemetryRing) observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if r.count == 0 || v < r.min {
		r.min = v
	}
	if r.count == 0 || v > r.max {
		r.max = v
	}
	r.count++
	r.last = v
	r.sum += v
	r.buf[r.next] = v
	r.next = (r.next + 1) % telemetryRingSize
	if r.n < telemetryRingSize {
		r.n++
	}
}

// RollingStat summarizes one telemetry series: running aggregates over the
// query's lifetime plus the mean of the most recent window (≤ 64 samples).
type RollingStat struct {
	Count       uint64  `json:"count"`
	Last        float64 `json:"last"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	Mean        float64 `json:"mean"`
	RollingMean float64 `json:"rolling_mean"`
	Window      int     `json:"window"`
}

func (r *telemetryRing) snapshot() RollingStat {
	s := RollingStat{Count: r.count, Last: r.last, Min: r.min, Max: r.max, Window: r.n}
	if r.count > 0 {
		s.Mean = r.sum / float64(r.count)
	}
	if r.n > 0 {
		var sum float64
		for i := 0; i < r.n; i++ {
			sum += r.buf[i]
		}
		s.RollingMean = sum / float64(r.n)
	}
	return s
}

// queryTelemetry accumulates per-query accuracy telemetry as results are
// decorated. The per-query rings always update — during WAL replay they are
// reconstructing pre-crash state — while the process-global instruments are
// skipped when the engine is recovering.
type queryTelemetry struct {
	mu        sync.Mutex
	fields    uint64 // fields decorated with accuracy info
	tupleProb uint64 // results carrying a tuple-probability interval
	meanHW    telemetryRing
	varWidth  telemetryRing
	probWidth telemetryRing
	lastDF    int
	minDF     int
	maxDF     int
}

func (qt *queryTelemetry) observeField(info *accuracy.Info, recovering bool) {
	qt.mu.Lock()
	qt.fields++
	qt.meanHW.observe(info.Mean.Length() / 2)
	qt.varWidth.observe(info.Variance.Length())
	if qt.fields == 1 || info.N < qt.minDF {
		qt.minDF = info.N
	}
	if info.N > qt.maxDF {
		qt.maxDF = info.N
	}
	qt.lastDF = info.N
	qt.mu.Unlock()
	if !recovering {
		hMeanHW.Observe(info.Mean.Length() / 2)
		gLastDF.Set(int64(info.N))
	}
}

func (qt *queryTelemetry) observeTupleProb(iv accuracy.Interval, recovering bool) {
	qt.mu.Lock()
	qt.tupleProb++
	qt.probWidth.observe(iv.Length())
	qt.mu.Unlock()
	if !recovering {
		hTupleProbW.Observe(iv.Length())
	}
}

// DFStat summarizes the d.f. sample sizes (Definition 2 / Lemma 3) observed
// on decorated fields.
type DFStat struct {
	Last int `json:"last"`
	Min  int `json:"min"`
	Max  int `json:"max"`
}

// Telemetry is a point-in-time snapshot of a query's accuracy telemetry,
// serialized on the METRICS <id> protocol path.
type Telemetry struct {
	// Fields counts output fields decorated with accuracy info.
	Fields uint64 `json:"fields"`
	// TupleProbs counts results that carried a membership-probability
	// interval.
	TupleProbs uint64 `json:"tuple_probs"`
	// MeanCIHalfWidth tracks (Hi−Lo)/2 of the Lemma 2 mean interval.
	MeanCIHalfWidth RollingStat `json:"mean_ci_halfwidth"`
	// VarianceCIWidth tracks Hi−Lo of the Lemma 2 variance interval.
	VarianceCIWidth RollingStat `json:"variance_ci_width"`
	// TupleProbWidth tracks Hi−Lo of the tuple-probability interval.
	TupleProbWidth RollingStat `json:"tuple_prob_width"`
	// DF tracks the d.f. sample sizes behind the intervals.
	DF DFStat `json:"df"`
}

// Telemetry returns a snapshot of the query's accuracy telemetry. Safe to
// call concurrently with Push.
func (q *Query) Telemetry() Telemetry {
	qt := &q.telem
	qt.mu.Lock()
	defer qt.mu.Unlock()
	return Telemetry{
		Fields:          qt.fields,
		TupleProbs:      qt.tupleProb,
		MeanCIHalfWidth: qt.meanHW.snapshot(),
		VarianceCIWidth: qt.varWidth.snapshot(),
		TupleProbWidth:  qt.probWidth.snapshot(),
		DF:              DFStat{Last: qt.lastDF, Min: qt.minDF, Max: qt.maxDF},
	}
}
