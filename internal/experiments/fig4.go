package experiments

import (
	"repro/internal/accuracy"
	"repro/internal/cartel"
	"repro/internal/dist"
	"repro/internal/learn"
	"repro/internal/synthgen"
)

// fig4SampleSizes is the n sweep of Figures 4(a)–(c).
var fig4SampleSizes = []int{10, 20, 30, 40, 50, 60, 70, 80}

const (
	fig4Level = 0.9 // the paper uses 90% confidence intervals throughout
	fig4Bins  = 5   // histogram buckets for bin-height statistics
)

// segmentStats holds per-trial interval lengths and misses for the three
// statistics of Figures 4(a)–(d).
type segmentStats struct {
	lenBin, lenMean, lenVar    float64
	missBin, missMean, missVar float64
	trials                     float64
}

// measureAccuracy draws `trials` samples of size n from d, computes the
// three analytical 90% intervals (Lemma 1 bin heights over fixed edges,
// Lemma 2 mean and variance), and scores lengths and misses against the
// distribution's exact parameters.
func measureAccuracy(d dist.Distribution, n, trials int, rng *dist.Rand) (segmentStats, error) {
	var out segmentStats
	// Fixed bucket edges spanning the bulk of the distribution so that
	// true bin heights are well defined across trials.
	lo, hi := d.Quantile(0.001), d.Quantile(0.999)
	edges := make([]float64, fig4Bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(fig4Bins)
	}
	trueBins, err := cartel.TrueBinHeights(d, edges)
	if err != nil {
		return out, err
	}
	trueMean, trueVar := d.Mean(), d.Variance()
	learner := learn.NewHistogramLearnerRange(fig4Bins, lo, hi)
	for k := 0; k < trials; k++ {
		s := learn.NewSample(dist.SampleN(d, n, rng))
		// Bin heights.
		ld, err := learner.Learn(s)
		if err != nil {
			return out, err
		}
		h := ld.(*dist.Histogram)
		bins, err := accuracy.HistogramAccuracy(h, n, fig4Level)
		if err != nil {
			return out, err
		}
		for i, b := range bins {
			out.lenBin += b.Interval.Length() / float64(len(bins))
			if !b.Interval.Contains(trueBins[i]) {
				out.missBin += 1 / float64(len(bins))
			}
		}
		// Mean and variance from the raw sample statistics.
		ybar, err := s.Mean()
		if err != nil {
			return out, err
		}
		sd, err := s.StdDev()
		if err != nil {
			return out, err
		}
		mIv, err := accuracy.MeanInterval(ybar, sd, n, fig4Level)
		if err != nil {
			return out, err
		}
		vIv, err := accuracy.VarianceInterval(sd*sd, n, fig4Level)
		if err != nil {
			return out, err
		}
		out.lenMean += mIv.Length()
		out.lenVar += vIv.Length()
		if !mIv.Contains(trueMean) {
			out.missMean++
		}
		if !vIv.Contains(trueVar) {
			out.missVar++
		}
		out.trials++
	}
	return out, nil
}

// fig4Sweep runs measureAccuracy for every sample size over a set of road
// segments, averaging per n.
func fig4Sweep(cfg Config) (lens map[string][]float64, misses map[string][]float64, err error) {
	net, err := cartel.NewNetwork(cfg.Segments, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	rng := dist.NewRand(cfg.Seed + 1)
	numSegments := cfg.scale(100, 15)
	trials := cfg.scale(20, 3)
	lens = map[string][]float64{"bin": {}, "mean": {}, "var": {}}
	misses = map[string][]float64{"bin": {}, "mean": {}, "var": {}}
	for _, n := range fig4SampleSizes {
		var agg segmentStats
		for segIdx := 0; segIdx < numSegments; segIdx++ {
			seg := net.Segments[segIdx%len(net.Segments)]
			st, err := measureAccuracy(seg.Delay, n, trials, rng)
			if err != nil {
				return nil, nil, err
			}
			agg.lenBin += st.lenBin
			agg.lenMean += st.lenMean
			agg.lenVar += st.lenVar
			agg.missBin += st.missBin
			agg.missMean += st.missMean
			agg.missVar += st.missVar
			agg.trials += st.trials
		}
		lens["bin"] = append(lens["bin"], agg.lenBin/agg.trials)
		lens["mean"] = append(lens["mean"], agg.lenMean/agg.trials)
		lens["var"] = append(lens["var"], agg.lenVar/agg.trials)
		misses["bin"] = append(misses["bin"], agg.missBin/agg.trials)
		misses["mean"] = append(misses["mean"], agg.missMean/agg.trials)
		misses["var"] = append(misses["var"], agg.missVar/agg.trials)
	}
	return lens, misses, nil
}

func fig4Xs() []float64 {
	xs := make([]float64, len(fig4SampleSizes))
	for i, n := range fig4SampleSizes {
		xs[i] = float64(n)
	}
	return xs
}

// Fig4a reproduces Figure 4(a): sample size vs 90% confidence interval
// length of the μ parameter, on simulated road-delay data.
func Fig4a(cfg Config) (*Figure, error) {
	lens, _, err := fig4Sweep(cfg)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "4a",
		Title:  "sample size vs interval length of μ (road-delay data)",
		XLabel: "sample size",
		YLabel: "interval length of μ (seconds)",
		Series: []Series{{Name: "mean interval length", X: fig4Xs(), Y: lens["mean"]}},
		Notes:  "expect ∝ 1/√n decay",
	}, nil
}

// Fig4b reproduces Figure 4(b): sample size vs normalized interval length
// (normalized by the length at n = 10) for bin heights, mean, and variance.
func Fig4b(cfg Config) (*Figure, error) {
	lens, _, err := fig4Sweep(cfg)
	if err != nil {
		return nil, err
	}
	normalize := func(ys []float64) []float64 {
		out := make([]float64, len(ys))
		base := ys[0]
		for i, v := range ys {
			out[i] = v / base
		}
		return out
	}
	xs := fig4Xs()
	return &Figure{
		ID:     "4b",
		Title:  "sample size vs normalized interval length",
		XLabel: "sample size",
		YLabel: "normalized interval length (n=10 ⇒ 1)",
		Series: []Series{
			{Name: "bin heights", X: xs, Y: normalize(lens["bin"])},
			{Name: "mean", X: xs, Y: normalize(lens["mean"])},
			{Name: "variance", X: xs, Y: normalize(lens["var"])},
		},
	}, nil
}

// Fig4c reproduces Figure 4(c): miss rates of the three interval types vs
// sample size. Bin heights should miss least; variance most (the
// analytical variance interval assumes near-normality, which heavy-tailed
// delays violate).
func Fig4c(cfg Config) (*Figure, error) {
	_, misses, err := fig4Sweep(cfg)
	if err != nil {
		return nil, err
	}
	xs := fig4Xs()
	return &Figure{
		ID:     "4c",
		Title:  "miss rates vs sample size (90% intervals, road-delay data)",
		XLabel: "sample size",
		YLabel: "miss rate",
		Series: []Series{
			{Name: "bin heights", X: xs, Y: misses["bin"]},
			{Name: "mean", X: xs, Y: misses["mean"]},
			{Name: "variance", X: xs, Y: misses["var"]},
		},
		Notes: "nominal miss rate is 0.10",
	}, nil
}

// Fig4d reproduces Figure 4(d): average miss rate (over the three
// statistics) for the five synthetic distributions at n = 20.
func Fig4d(cfg Config) (*Figure, error) {
	cfg = cfg.Normalize()
	rng := dist.NewRand(cfg.Seed + 2)
	trials := cfg.scale(2000, 200)
	labels := make([]string, 0, 5)
	ys := make([]float64, 0, 5)
	for _, name := range synthgen.Names() {
		d, err := synthgen.New(name)
		if err != nil {
			return nil, err
		}
		st, err := measureAccuracy(d, 20, trials, rng)
		if err != nil {
			return nil, err
		}
		avgMiss := (st.missBin + st.missMean + st.missVar) / (3 * st.trials)
		labels = append(labels, string(name))
		ys = append(ys, avgMiss)
	}
	return &Figure{
		ID:     "4d",
		Title:  "average miss rate per distribution (n = 20, 90% intervals)",
		XLabel: "distribution",
		YLabel: "miss rate",
		Series: []Series{{Name: "avg miss rate", XLabels: labels, Y: ys}},
		Notes:  "averaged over bin heights, mean, and variance",
	}, nil
}
