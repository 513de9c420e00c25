// Package cluster layers deterministic replication and stream-sharded
// routing on top of the single-node asdb server.
//
// Replication is WAL shipping: the primary's write-ahead log already
// totally orders every state change (WAL order == engine sequence order,
// and the engine's results are a pure function of that order), so a
// follower that replays the shipped records through the server's normal
// apply paths is byte-identical to the primary at every LSN — DATA frames, STATS replies
// and per-query METRICS all match. ShipServer is the primary side (serves
// sealed and live segments, tracks follower lag); Follower is the replica
// side (applies records, serves read-only traffic, can be promoted).
//
// Routing is rendezvous hashing of streams across N independent primaries,
// with join-aware co-location: both inputs of a JOIN must live on one node,
// so streams are grouped with union-find and a group is re-homed (by
// replaying its DDL) only while it has never taken routed ingest. Router is
// the one routing front end, a thin proxy speaking the line protocol (the
// asdb-router binary). It reuses the server's @reqid dedup window for
// exactly-once ingest retries across failover — the dedup window is
// replicated, so a promoted follower answers a retried batch from the
// window instead of double-applying it.
package cluster

import (
	"errors"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// Follower-side lag gauges, primary-side follower count, router retry
// counter. Registered here — not in internal/server — so a single-node
// server's METRICS key set (pinned by the golden transcript) is unchanged.
var (
	gLagRecords = metrics.Default.Gauge("asdb_repl_lag_records",
		"replication lag in records: primary's last known LSN minus last applied (follower side)")
	gLagSeconds = metrics.Default.FloatGauge("asdb_repl_lag_seconds",
		"replication lag in seconds: age of the newest applied record, 0 when caught up (follower side)")
	gFollowers = metrics.Default.Gauge("asdb_repl_followers",
		"connected WAL-shipping followers (primary side)")
	mRouteRetries = metrics.Default.Counter("asdb_route_retries_total",
		"routed ingest attempts retried against a failover target")

	// Failover observability (ISSUE 10).
	gEpoch = metrics.Default.Gauge("asdb_cluster_epoch",
		"this node's current epoch (advanced by its own promotion or by adopting a newer primary's)")
	mFailovers = metrics.Default.Counter("asdb_failover_total",
		"automatic promotions performed by the failover manager on this node")
	mFencedRejects = metrics.Default.Counter("asdb_fenced_rejects_total",
		"writes rejected because this node is fenced at a stale epoch")
	mHeartbeatMisses = metrics.Default.Counter("asdb_heartbeat_misses_total",
		"SuspectAfter windows the primary stayed silent through (each window counted once per suspicion episode)")
)

// The server's dispatch counts fenced rejections but must not register
// cluster metrics itself (single-node METRICS key set is pinned by the
// golden transcript), so it calls back through this hook.
func init() {
	server.FencedRejectHook = mFencedRejects.Inc
	server.EpochAdoptHook = func(epoch uint64) { gEpoch.Set(int64(epoch)) }
}

// retryableIngestReject reports whether a server's ERR text means "this
// node cannot take writes right now, but another one can": an unpromoted
// follower ("read-only replica") or an ex-primary fenced at a stale epoch.
// Both are failover signals the routing layer retries through, not command
// rejections to surface.
func retryableIngestReject(msg string) bool {
	return strings.Contains(msg, "read-only replica") ||
		strings.Contains(msg, "fenced: stale epoch")
}

// maxShipLine bounds one shipped protocol line. WAL payloads are command
// lines capped at 16MiB by the server; the REC framing adds a few tens of
// bytes, so one extra MiB of slack is plenty. A SNAP body is not a line and
// has no cap.
const maxShipLine = 17 << 20

// testHookRouteRetry, when set, runs before each ingest retry attempt
// (attempt numbering starts at 1). Chaos tests use it to promote a
// follower and kill the primary between the torn first attempt and the
// retry.
var testHookRouteRetry func(attempt int)

// walkFailover is the failover walk of routed ingest. Attempt k goes to
// targets[k mod len(targets)] — primary first, then its replicas, wrapping
// around — with a backoff before every retry. try makes one attempt and returns the reply; a server.ServerError
// means the node answered ERR, any other error a transport failure (try has
// dropped that connection). A retryable reject or a transport failure
// walks on; success or any other ERR ends the walk. When attempts run out
// the last attempt's result is returned.
func walkFailover(targets []string, attempts int, retry *server.Retrier, try func(addr string) (string, error)) (string, error) {
	var rep string
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			mRouteRetries.Inc()
			if hook := testHookRouteRetry; hook != nil {
				hook(attempt)
			}
			time.Sleep(retry.Backoff(attempt))
		}
		rep, err = try(targets[attempt%len(targets)])
		var se server.ServerError
		if err == nil || errors.As(err, &se) && !retryableIngestReject(string(se)) {
			return rep, err
		}
	}
	return rep, err
}
