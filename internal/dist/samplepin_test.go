package dist_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/learn"
)

// The sampler pin suite fixes the exact draw sequence of every sampler that
// picks a bucket, point or component by probability: Histogram, Discrete and
// Mixture. Each case draws pinDraws values from a fixed seed and folds the
// bits of every draw, then the generator's final state, into one SHA-256, so
// the bucket search can be rewritten without changing a single variate or
// the state any later draw starts from.
//
// The digests were generated at commit 01b6be3, whose samplers walked the
// running sum with an early exit. They are constants: a digest that no longer
// matches is a behaviour change, not a reason to regenerate.
const pinDraws = 100_000

type samplerPin struct {
	name string
	dist func(t *testing.T) dist.Distribution
	want string
}

// countsHist is a histogram learned from counts over unit-width buckets.
func countsHist(t testing.TB, counts []int) *dist.Histogram {
	t.Helper()
	edges := make([]float64, len(counts)+1)
	for i := range edges {
		edges[i] = float64(i)
	}
	h, err := dist.HistogramFromCounts(edges, counts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// seededCounts returns n bucket counts in [0, 9] — a fair share of them
// zero — with at least one observation.
func seededCounts(n int, seed uint64) []int {
	r := dist.NewRand(seed)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = r.Intn(10)
	}
	counts[n/2]++
	return counts
}

// kernelHist is a histogram in the shape the kernel-mc benchmark workload
// sends: six edges ten apart and five counts of 1–12.
func kernelHist(t testing.TB) *dist.Histogram {
	t.Helper()
	h, err := dist.HistogramFromCounts([]float64{37.5, 47.5, 57.5, 67.5, 77.5, 87.5}, []int{3, 12, 1, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newHist(t *testing.T, edges, probs []float64) *dist.Histogram {
	t.Helper()
	h, err := dist.NewHistogram(edges, probs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func normal(t *testing.T, mu, sigma2 float64) dist.Normal {
	t.Helper()
	n, err := dist.NewNormal(mu, sigma2)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var samplerPins = []samplerPin{
	{"histogram-kernel-mc", func(t *testing.T) dist.Distribution { return kernelHist(t) },
		"9a0add38da74efe8d0d4f6cc7bc10941d02dce4c673d184fd2e15a342791f611"},
	{"histogram-learned-20", func(t *testing.T) dist.Distribution {
		r := dist.NewRand(5)
		obs := make([]float64, 1000)
		for i := range obs {
			obs[i] = 60 + 10*r.NormFloat64()
		}
		h, err := learn.NewHistogramLearner(20).Learn(learn.NewSample(obs))
		if err != nil {
			t.Fatal(err)
		}
		if got := h.(*dist.Histogram).NumBuckets(); got != 20 {
			t.Fatalf("learned %d buckets, want 20", got)
		}
		return h
	}, "12840863b47d5616f115d708b87d0480eb587bc8199cd250da5e095f04100a23"},
	{"histogram-1", func(t *testing.T) dist.Distribution { return countsHist(t, []int{4}) },
		"19bfc5fc862526ff18ba0936be4b3fc3cf0bf9045d42401e1a745fdebca35a6d"},
	{"histogram-64", func(t *testing.T) dist.Distribution { return countsHist(t, seededCounts(64, 64)) },
		"d955452d7b02ded7a1aee6ee9c3814e177eb656f6d66c0fe2b95500ebcc3d3f2"},
	{"histogram-256", func(t *testing.T) dist.Distribution { return countsHist(t, seededCounts(256, 256)) },
		"1fb455d6d0406a0882b4bba5e19ea7b9ef5dddaa0658f11a913204e9216483bf"},
	{"histogram-4096", func(t *testing.T) dist.Distribution { return countsHist(t, seededCounts(4096, 4096)) },
		"a1cdd1ad1eb971fabc591b92cd61251bc07fdf2df1db36e4a7adaa8d7de32a22"},
	{"histogram-zero-first", func(t *testing.T) dist.Distribution {
		return newHist(t, []float64{0, 1, 2, 3, 4}, []float64{0, 0.25, 0.5, 0.25})
	}, "671cbed1f17aa86d11a8e65291555422fb11960a51b20e285824e4f6e937d8eb"},
	{"histogram-zero-middle", func(t *testing.T) dist.Distribution {
		return newHist(t, []float64{0, 1, 2, 3, 4, 5}, []float64{0.25, 0, 0, 0.5, 0.25})
	}, "75ddb88495c3365f00f6447b82e658b572dc025d8fa47816f04d581ba634033f"},
	{"histogram-zero-last", func(t *testing.T) dist.Distribution {
		return newHist(t, []float64{0, 1, 2, 3, 4}, []float64{0.25, 0.25, 0.5, 0})
	}, "ccc2b022ce7e90f2a1d05a850ec3f7f078e285e9776580e4a6fa5a1a4e826703"},
	// The running sum ends at 1 − 2⁻⁵³, one ulp below 1: a draw of exactly
	// that value takes the fallthrough to the last bucket.
	{"histogram-one-ulp-short", func(t *testing.T) dist.Distribution {
		h, err := dist.RestoreHistogram([]float64{0, 1, 2, 3, 4}, []float64{0.25, 0.25, 0.25, 0.25 - 0x1p-53})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}, "a81e0a3dbf842f0e679ec66f853a32f0430764ea060ded3631e7c5e32cf7a344"},
	// Built as a literal, with a quarter of the mass missing: a quarter of
	// the draws fall through to the last bucket, whose own probability is 0.
	{"histogram-literal-short", func(t *testing.T) dist.Distribution {
		return &dist.Histogram{Edges: []float64{0, 1, 2, 3}, Probs: []float64{0.25, 0.5, 0}}
	}, "a079d9411e7d5e43193d5ee7f295fbedfaf3abb49a4833be3b4a4e3653f5f887"},
	{"discrete-3", func(t *testing.T) dist.Distribution {
		d, err := dist.NewDiscrete([]float64{4, -1, 0.5}, []float64{0.7, 0.3, 0})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}, "5cf3b54eeb11e1772658b9d2cbf29f1131d4ce1cafef9bad10303c9cc235722b"},
	{"discrete-1000", func(t *testing.T) dist.Distribution {
		r := dist.NewRand(1000)
		xs, ps := make([]float64, 1000), make([]float64, 1000)
		for i := range xs {
			xs[i] = 0.5 * float64(i)
			ps[i] = float64(r.Intn(4))
		}
		d, err := dist.NewDiscrete(xs, ps)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}, "a7feb308d681ac4b9b9bd72337c73a079294d734ebef75af041573576147bad1"},
	{"mixture", func(t *testing.T) dist.Distribution {
		m, err := dist.NewMixture(
			[]dist.Distribution{kernelHist(t), normal(t, 1000, 1), normal(t, 50, 9)},
			[]float64{0.6, 0, 0.4})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}, "30c2eeda37a31b5e7b073e970aa5391efc21558c7feb58f90354b701f682a37d"},
	{"mixture-literal", func(t *testing.T) dist.Distribution {
		return &dist.Mixture{
			Components: []dist.Distribution{normal(t, 50, 9), kernelHist(t), normal(t, -5, 1)},
			Weights:    []float64{0.3, 0.7, 0},
		}
	}, "5697f40428dc5a2d3f5257d44c102dd8f0172e4ae9d5e8dda67642ceec18263a"},
}

// drawDigest draws pinDraws values from d and hashes their bits and the
// generator's final state.
func drawDigest(d dist.Distribution) string {
	r := dist.NewRand(20120401)
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < pinDraws; i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.Sample(r)))
		h.Write(buf[:])
	}
	st := r.State()
	fmt.Fprintf(h, "state %x %x %x %x %x %v\n", st.S[0], st.S[1], st.S[2], st.S[3], math.Float64bits(st.Spare), st.HaveSpare)
	return hex.EncodeToString(h.Sum(nil))
}

func TestSamplerPins(t *testing.T) {
	for _, pc := range samplerPins {
		t.Run(pc.name, func(t *testing.T) {
			if got := drawDigest(pc.dist(t)); got != pc.want {
				t.Errorf("%s: digest %s, pinned %s", pc.name, got, pc.want)
			}
		})
	}
}

var sampleSink float64

// BenchmarkHistogramSample measures one draw — bucket choice plus the
// uniform point inside it — from a kernel-mc histogram (5 buckets) and from
// seeded count histograms of 20 to 4096 buckets.
func BenchmarkHistogramSample(b *testing.B) {
	for _, n := range []int{5, 20, 64, 256, 4096} {
		h := kernelHist(b)
		if n != h.NumBuckets() {
			h = countsHist(b, seededCounts(n, uint64(n)))
		}
		b.Run(fmt.Sprintf("buckets=%d", n), func(b *testing.B) {
			r := dist.NewRand(1)
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += h.Sample(r)
			}
			sampleSink = s
		})
	}
}
