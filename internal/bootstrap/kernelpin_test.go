package bootstrap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dist"
	"repro/internal/learn"
)

// The kernel pin suite fixes every output bit of the accuracy kernel's entry
// points: BOOTSTRAP-ACCURACY-INFO with and without bin heights, its shed
// variant, sampling from a result distribution (Normal and Point take their
// own loops, a histogram and a Gamma the generic Sample path) and the classic
// bootstrap. Each case runs at a total work of 200 and of 80 000 scalar
// operations, on both sides of the 4096-operation cutoff below which the
// kernel once declined to fan out over goroutines. Each case folds the
// result's bits, then the state of the generator it drew from, into one
// SHA-256.
//
// The digests were generated with the kernel running serially and asserted
// with it fanned out over four workers, before the worker pool was removed.
// They are constants: a digest that no longer matches is a behaviour change,
// not a reason to regenerate.

type kernelPin struct {
	name string
	run  func(t *testing.T, rng *dist.Rand) []byte
	want string
}

// pinHist is a histogram in the shape the kernel-mc benchmark workload sends.
func pinHist(t *testing.T) *dist.Histogram {
	t.Helper()
	h, err := dist.HistogramFromCounts([]float64{37.5, 47.5, 57.5, 67.5, 77.5, 87.5}, []int{3, 12, 1, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// pinValues draws m values from pinHist, the value sequence a Monte Carlo
// query over kernel-mc's fields would hand to BOOTSTRAP-ACCURACY-INFO.
func pinValues(t *testing.T, rng *dist.Rand, m int) []float64 {
	return dist.SampleN(pinHist(t), m, rng)
}

// must fails the test on err and otherwise returns v.
func must[T any](v T, err error) func(*testing.T) T {
	return func(t *testing.T) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func infoBits(info *accuracy.Info) []byte {
	var b []byte
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	iv := func(i accuracy.Interval) { f(i.Lo); f(i.Hi); f(i.Level) }
	b = binary.LittleEndian.AppendUint64(b, uint64(info.N))
	f(info.Level)
	iv(info.Mean)
	iv(info.Variance)
	for _, bin := range info.Bins {
		b = binary.LittleEndian.AppendUint64(b, uint64(bin.Bucket))
		f(bin.Lo)
		f(bin.Hi)
		f(bin.Estimate)
		iv(bin.Interval)
	}
	return append(b, info.Method...)
}

func accuracyInfoPin(n, r int, withHist, shed bool) func(*testing.T, *dist.Rand) []byte {
	return func(t *testing.T, rng *dist.Rand) []byte {
		v := pinValues(t, rng, n*r)
		var h *dist.Histogram
		if withHist {
			h = pinHist(t)
		}
		call := pinAccuracyInfo
		if shed {
			call = pinAccuracyInfoShed
		}
		return infoBits(must(call(v, n, 0.9, h))(t))
	}
}

func fromDistributionPin(d func(*testing.T) dist.Distribution, n, r int, shed bool) func(*testing.T, *dist.Rand) []byte {
	return func(t *testing.T, rng *dist.Rand) []byte {
		call := pinFromDistribution
		if shed {
			call = pinFromDistributionShed
		}
		return infoBits(must(call(d(t), n, r, 0.9, rng))(t))
	}
}

func classicPin(size, b int) func(*testing.T, *dist.Rand) []byte {
	return func(t *testing.T, rng *dist.Rand) []byte {
		s := learn.NewSample(pinValues(t, rng, size))
		var out []byte
		for _, st := range []Statistic{Mean, Variance, ProportionAbove(60)} {
			for _, x := range must(pinClassic(s, st, b, rng))(t) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
			}
		}
		return out
	}
}

var (
	pinNormal = func(t *testing.T) dist.Distribution { return must(dist.NewNormal(62, 120))(t) }
	pinPoint  = func(t *testing.T) dist.Distribution { return dist.Point{V: 74.5} }
	pinHistD  = func(t *testing.T) dist.Distribution { return pinHist(t) }
	pinGamma  = func(t *testing.T) dist.Distribution { return must(dist.NewGamma(2.5, 3))(t) }
)

var kernelPins = []kernelPin{
	{"accuracy-info/200", accuracyInfoPin(10, 20, false, false),
		"6171908b8cb7475c75ef0cb0f8d23e5bda30ae57534da93f967b07fd312df848"},
	{"accuracy-info/80000", accuracyInfoPin(400, 200, false, false),
		"a341d8cc45b035ddb773ebd4ad98daeea905a0e0db82c950ef840039182c4b6e"},
	{"accuracy-info-hist/200", accuracyInfoPin(10, 20, true, false),
		"ad274fcbbbb94800330cb08844d4157d3b1c25f9cc4c2927304d7d7d00a5afff"},
	{"accuracy-info-hist/80000", accuracyInfoPin(400, 200, true, false),
		"78bdb45f6c0cc79bb501334c46bb34ed435e5bba09fdbb6498d18dcb2afe58ba"},
	{"accuracy-info-shed/200", accuracyInfoPin(10, 20, false, true),
		"a641143aa241a19406b65a6bdfe6f9ea6a34d2ce1a0bfd5e1165198878da1260"},
	{"accuracy-info-shed/80000", accuracyInfoPin(400, 200, false, true),
		"2d79b1962e062cdff03bf46e6bb5d27fa04194b54d545e5549e71ca036ce3391"},
	{"accuracy-info-shed-hist/200", accuracyInfoPin(10, 20, true, true),
		"36f721249d703c666237a3632034b6941de5d597726494080a98f74d3d059fd8"},
	{"accuracy-info-shed-hist/80000", accuracyInfoPin(400, 200, true, true),
		"e854dd77067f1a7b60985a8181f904d24c958cc9c7b72e4dc33566e02cb7f9f8"},
	{"from-distribution/normal/200", fromDistributionPin(pinNormal, 10, 20, false),
		"f63bbdb9b46a2da45d555b37344b8726666c9bdf0bf3cc71c99add5d39def733"},
	{"from-distribution/normal/80000", fromDistributionPin(pinNormal, 4000, 20, false),
		"c72189cdcf49ffb89c8d80ca389f03cad7728590154e35dd7f6bcd36f412b7b8"},
	{"from-distribution/point/200", fromDistributionPin(pinPoint, 10, 20, false),
		"894c3bf9727ed7fb66d8318f4aa378612959ca9513c0f3883942c3909a704eae"},
	{"from-distribution/point/80000", fromDistributionPin(pinPoint, 4000, 20, false),
		"7db6d71dc75388448e07c649062bb17759e1a538ba78727c84c01d66257421cb"},
	{"from-distribution/histogram/200", fromDistributionPin(pinHistD, 10, 20, false),
		"0aed186d42ba5c01b59fadcc8d0292ccba52548bcaad9377fbdc9dd000aba710"},
	{"from-distribution/histogram/80000", fromDistributionPin(pinHistD, 4000, 20, false),
		"743149e50de58148c708dfb6ccdb727a363900bad5af04514fdc717c4d22d6bb"},
	{"from-distribution/gamma/200", fromDistributionPin(pinGamma, 10, 20, false),
		"2cae22ab3511b05b34ddc381f8ae0e16333ae42231df0c54d6d50d4fba8907fd"},
	{"from-distribution/gamma/80000", fromDistributionPin(pinGamma, 4000, 20, false),
		"214e3c54c21328831a2d45d5d125bd67d8dd613e716a3e998bbe08ec233ad576"},
	{"from-distribution-shed/normal/200", fromDistributionPin(pinNormal, 40, 5, true),
		"d2d3c177ec2f07c67040da5d336fa7d7aaa45f4359fea6588ebcbbac97ec9cd5"},
	{"from-distribution-shed/normal/80000", fromDistributionPin(pinNormal, 16000, 5, true),
		"5de5baad593477da907c079401d88f11a79a23b05812bd188d57d48a88080564"},
	{"from-distribution-shed/point/200", fromDistributionPin(pinPoint, 40, 5, true),
		"43010f23b9f96ac7c7ba4f0aca81861f5fb31573a9fa4d4a02873f2498632a09"},
	{"from-distribution-shed/point/80000", fromDistributionPin(pinPoint, 16000, 5, true),
		"9ec5ba5404faaa5bf2418e040f57e1acf4faaa40d07de1b713053a8cf5895793"},
	{"from-distribution-shed/histogram/200", fromDistributionPin(pinHistD, 40, 5, true),
		"6fce6bf3ec4801e7e39add1d977818bbda3e9936dcfdaa369698643d350c894e"},
	{"from-distribution-shed/histogram/80000", fromDistributionPin(pinHistD, 16000, 5, true),
		"beaa18a4a71ee7b56d7fedb9cfb71268cad477aab7a0dcb0b89787b9574afeb4"},
	{"from-distribution-shed/gamma/200", fromDistributionPin(pinGamma, 40, 5, true),
		"de3044925c5f258906972e8d4d973c13b706a7ef896eb3990479b3fbf29722bf"},
	{"from-distribution-shed/gamma/80000", fromDistributionPin(pinGamma, 16000, 5, true),
		"ad5e8db6841530f8db016df7ce55e10beb267a0f0f0ddd4b4ac1634ea4e99666"},
	{"classic/200", classicPin(20, 10),
		"031d31debf8902a77b76945e1fd2de121dbd43837c733c488938588fae9feac8"},
	{"classic/80000", classicPin(200, 400),
		"5e5a615f21fc273c5364bc973d6b576a0ca6a47677c557b413d6d882a121937b"},
}

func pinDigest(t *testing.T, pc kernelPin) string {
	rng := dist.NewRand(20120401)
	h := sha256.New()
	h.Write(pc.run(t, rng))
	st := rng.State()
	fmt.Fprintf(h, "state %x %x %x %x %x %v\n", st.S[0], st.S[1], st.S[2], st.S[3], math.Float64bits(st.Spare), st.HaveSpare)
	return hex.EncodeToString(h.Sum(nil))
}

func TestKernelPins(t *testing.T) {
	for _, pc := range kernelPins {
		t.Run(pc.name, func(t *testing.T) {
			if got := pinDigest(t, pc); got != pc.want {
				t.Errorf("%s: digest %s, pinned %s", pc.name, got, pc.want)
			}
		})
	}
}
