package server

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// Accuracy-aware load shedding (ISSUE 5, tentpole part 3).
//
// Under overload the server does not drop tuples or queries — either would
// silently bias results. Instead it reduces the accuracy-estimation budget:
// each degrade level halves the bootstrap/Monte-Carlo resample count (see
// core.shedDivisor), which shows up honestly in query output as wider
// confidence intervals and Method "bootstrap-shed". The controller watches
// the push-latency histogram the engine already maintains
// (asdb_query_push_seconds) and walks the level up when the observed p99
// exceeds the target, back down after sustained headroom.
//
// Determinism: category-2 (distribution) bootstrap consumes the query RNG in
// proportion to the resample count, so a level change alters the RNG stream
// of every subsequent evaluation. Every transition is therefore journaled
// (wal.RecShed) inside an Exclusive section — at a definite WAL position —
// and the level is captured in checkpoints, so crash recovery replays the
// exact accuracy budget the live run used and recovered state stays
// bit-identical.

var (
	mShedTransitions = metrics.Default.Counter("asdb_shed_transitions_total",
		"load-shed degrade-level changes (up or down)")
	gShedP99Micros = metrics.Default.Gauge("asdb_shed_observed_p99_micros",
		"push-latency p99 observed by the shed controller over its last interval, in microseconds")
)

// ShedConfig tunes the overload controller. The zero value disables it.
type ShedConfig struct {
	// Enabled starts the controller goroutine with Serve.
	Enabled bool
	// Interval is the evaluation cadence (default 250ms).
	Interval time.Duration
	// TargetP99 is the push-latency p99 the controller defends (default
	// 50ms). Above it the degrade level steps up once per interval; below
	// half of it the level steps down after RecoverAfter healthy intervals.
	TargetP99 time.Duration
	// RecoverAfter is how many consecutive healthy intervals are required
	// per step back toward full accuracy (default 8). Hysteresis: recovery
	// is deliberately slower than degradation.
	RecoverAfter int
	// MinEvals is the minimum number of pushes in an interval for its
	// latency to count as a signal (default 8); near-idle intervals count
	// as healthy.
	MinEvals uint64
}

func (c ShedConfig) normalize() ShedConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.TargetP99 <= 0 {
		c.TargetP99 = 50 * time.Millisecond
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 8
	}
	if c.MinEvals == 0 {
		c.MinEvals = 8
	}
	return c
}

// setShedLevel journals and applies one degrade-level transition. The
// journal append happens under Exclusive so the WAL position fixes exactly
// which inserts ran at which level; replay restores the same budget
// schedule. No-op when the level is already current.
func (s *Server) setShedLevel(level int) error {
	if level < 0 {
		level = 0
	}
	if level > core.MaxDegradeLevel {
		level = core.MaxDegradeLevel
	}
	release := s.engine.Exclusive()
	if s.engine.DegradeLevel() == level {
		release()
		return nil
	}
	lsn, err := s.journal(wal.RecShed, strconv.Itoa(level))
	if err == nil {
		s.engine.SetDegradeLevel(level)
		mShedTransitions.Inc()
		s.logf("shed: degrade level -> %d", level)
	}
	release()
	if err != nil {
		return err
	}
	return s.waitDurable(lsn)
}

// shedController samples the push-latency histogram on a fixed cadence and
// drives the engine degrade level with hysteresis.
type shedController struct {
	s       *Server
	cfg     ShedConfig
	stop    chan struct{}
	done    chan struct{}
	prev    metrics.HistogramSnapshot
	healthy int
}

func (s *Server) startShed() {
	if !s.opts.Shed.Enabled || s.shed != nil {
		return
	}
	c := &shedController{
		s:    s,
		cfg:  s.opts.Shed,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		prev: core.PushLatency().Snapshot(),
	}
	s.shed = c
	go c.run()
}

func (s *Server) stopShed() {
	s.mu.Lock()
	c := s.shed
	s.shed = nil
	s.mu.Unlock()
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

func (c *shedController) run() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.tick()
		}
	}
}

func (c *shedController) tick() {
	cur := core.PushLatency().Snapshot()
	evals, p99 := intervalP99(c.prev, cur)
	c.prev = cur
	gShedP99Micros.Set(int64(p99 / time.Microsecond))
	level := c.s.engine.DegradeLevel()
	switch {
	case evals >= c.cfg.MinEvals && p99 > c.cfg.TargetP99:
		c.healthy = 0
		if level < core.MaxDegradeLevel {
			if err := c.s.setShedLevel(level + 1); err != nil {
				c.s.logf("shed: raise level: %v", err)
			}
		}
	case evals < c.cfg.MinEvals || p99 <= c.cfg.TargetP99/2:
		if level == 0 {
			c.healthy = 0
			return
		}
		c.healthy++
		if c.healthy >= c.cfg.RecoverAfter {
			c.healthy = 0
			if err := c.s.setShedLevel(level - 1); err != nil {
				c.s.logf("shed: lower level: %v", err)
			}
		}
	default:
		// Between Target/2 and Target: hold the current level.
		c.healthy = 0
	}
}

// intervalP99 estimates the p99 of the observations that landed between two
// histogram snapshots. Returns the interval's observation count and the
// upper bound of the bucket containing the 99th percentile (conservative:
// the true p99 is at most this). The +Inf bucket reports the largest finite
// bound.
func intervalP99(prev, cur metrics.HistogramSnapshot) (uint64, time.Duration) {
	if len(cur.Counts) == 0 || len(prev.Counts) != len(cur.Counts) {
		return 0, 0
	}
	total := cur.Count - prev.Count
	if total == 0 {
		return 0, 0
	}
	rank := (total*99 + 99) / 100 // ceil(0.99 * total)
	var cum uint64
	for i, n := range cur.Counts {
		cum += n - prev.Counts[i]
		if cum >= rank {
			if i < len(cur.Bounds) {
				return total, time.Duration(cur.Bounds[i] * float64(time.Second))
			}
			break
		}
	}
	// p99 fell in the +Inf bucket.
	last := cur.Bounds[len(cur.Bounds)-1]
	return total, time.Duration(last * float64(time.Second))
}
