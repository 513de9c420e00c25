package server

// BenchmarkOverloadShed (ISSUE 5 acceptance): a bootstrap-accuracy server
// is driven flat out with an accuracy budget (800 resamples) far past the
// controller's latency target — a sustained overload. With the controller
// off, every push pays the full budget. With it on, the observed p99
// crosses the target within a few intervals, the degrade level climbs, and
// each level halves the resample budget: per-tuple cost drops while the
// emitted confidence intervals widen honestly (Method "bootstrap-shed";
// see TestShedWidensIntervals). Recovery back to level 0 after the load
// stops is asserted by TestShedControllerDegradesAndRecovers.
//
// Reported metrics: p99_push_us is the interval p99 of the engine's push
// histogram over the timed region; degrade_level is the level reached by
// the controller ("0" with shed=off).

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func BenchmarkOverloadShed(b *testing.B) {
	for _, mode := range []struct {
		name string
		shed bool
	}{{"shed=off", false}, {"shed=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng, err := core.NewEngine(core.Config{
				Method:             core.AccuracyBootstrap,
				Seed:               5,
				BootstrapResamples: 800,
			})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(eng, nil)
			if err != nil {
				b.Fatal(err)
			}
			srv.SetOptions(Options{Shed: ShedConfig{
				Enabled:      mode.shed,
				Interval:     5 * time.Millisecond,
				TargetP99:    200 * time.Microsecond,
				MinEvals:     4,
				RecoverAfter: 1 << 20, // hold the degraded level for the whole run
			}})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve()
			defer srv.Close()
			tc := dialServer(b, addr.String())
			defer tc.c.Close()
			tc.mustOK(crashStreamCmd)
			tc.mustOK("QUERY q1 SELECT AVG(val) FROM temps WINDOW 8 ROWS")

			prev := core.PushLatency().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.mustOK(fmt.Sprintf("INSERT temps %d N(%d.5,2.25,%d)", i, 10+i%50, 20+i%30))
			}
			b.StopTimer()
			cur := core.PushLatency().Snapshot()
			if _, p99 := intervalP99(prev, cur); p99 > 0 {
				b.ReportMetric(float64(p99)/float64(time.Microsecond), "p99_push_us")
			}
			b.ReportMetric(float64(eng.DegradeLevel()), "degrade_level")
		})
	}
}
