// Package dist provides the probability-distribution substrate of the
// accuracy-aware uncertain stream database: a deterministic random number
// generator and the distribution families the paper's data model and
// experiments use (normal, exponential, Gamma, uniform, Weibull, lognormal,
// histograms, finite discrete distributions, degenerate points, and
// mixtures).
//
// Every distribution implements the Distribution interface: moments, CDF,
// quantile, and sampling. Sampling always goes through an explicit *Rand so
// that experiments and tests are reproducible from a seed.
package dist

import (
	"errors"
	"math"
)

// Rand is a small, fast, seedable pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is deliberately independent of
// math/rand so that streams of random numbers are stable across Go releases;
// the experiment harness depends on that for reproducible figures.
//
// Rand is not safe for concurrent use; give each goroutine its own instance
// (see Split).
type Rand struct {
	g         gen
	spare     float64 // cached second normal variate
	haveSpare bool
}

// gen is the xoshiro256** state, held by value: a loop that copies it into a
// local keeps the four words in registers instead of loading and storing
// them through a *Rand on every output (Joint's draw loop does).
type gen struct{ s0, s1, s2, s3 uint64 }

// next returns the generator advanced by one step, and that step's output.
func (g gen) next() (gen, uint64) {
	result := rotl(g.s1*5, 7) * 9
	t := g.s1 << 17
	g.s2 ^= g.s0
	g.s3 ^= g.s1
	g.s1 ^= g.s2
	g.s0 ^= g.s3
	g.s2 ^= t
	g.s3 = rotl(g.s3, 45)
	return g, result
}

// unit maps a generator output to a uniform float64 in [0, 1), as Float64
// does.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 expands the single word into four non-zero state words.
	r.Reseed(seed)
	return r
}

// Split returns a new generator whose stream is independent of r's
// (seeded from r's next outputs). Useful for giving each stream operator or
// worker goroutine its own source.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xd1342543de82ef95)
}

// DeriveSeed deterministically derives the seed of substream i from a root
// seed (SplitMix-style: golden-ratio stride through the seed space followed
// by a splitmix64 finalizer). It is a pure function — no generator state is
// consumed — so the bootstrap kernel hands resample i its own independent
// stream, and a resample's draws depend on its index alone.
func DeriveSeed(root, i uint64) uint64 {
	z := root + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRandStream returns a generator for substream i of root — shorthand for
// NewRand(DeriveSeed(root, i)).
func NewRandStream(root, i uint64) *Rand {
	return NewRand(DeriveSeed(root, i))
}

// Reseed resets r to the state NewRand(seed) would produce, reusing the
// allocation. It lets pooled per-worker generators step through substreams
// without churning the heap.
func (r *Rand) Reseed(seed uint64) {
	var s [4]uint64
	x := seed
	for i := range s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	r.g = gen{s[0], s[1], s[2], s[3]}
	r.spare = 0
	r.haveSpare = false
}

// RandState is the complete serializable state of a Rand. Capturing it and
// later restoring it via SetState resumes the stream exactly where it left
// off — the durability layer checkpoints per-query generators this way so a
// recovered engine draws the same variates a never-crashed one would.
type RandState struct {
	S         [4]uint64 `json:"s"`
	Spare     float64   `json:"spare,omitempty"`
	HaveSpare bool      `json:"have_spare,omitempty"`
}

// State returns a snapshot of r's full state.
func (r *Rand) State() RandState {
	return RandState{S: [4]uint64{r.g.s0, r.g.s1, r.g.s2, r.g.s3}, Spare: r.spare, HaveSpare: r.haveSpare}
}

// SetState restores a snapshot taken with State. The all-zero xoshiro state
// is degenerate (the generator would emit zeros forever) and is rejected.
func (r *Rand) SetState(st RandState) error {
	if st.S[0]|st.S[1]|st.S[2]|st.S[3] == 0 {
		return errors.New("dist: all-zero generator state")
	}
	r.g = gen{st.S[0], st.S[1], st.S[2], st.S[3]}
	r.spare = st.Spare
	r.haveSpare = st.HaveSpare
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	var x uint64
	r.g, x = r.g.next()
	return x
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly 0;
// safe as input to log or quantile transforms.
func (r *Rand) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1, w2 := t&mask32, t>>32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// NormFloat64 returns a standard normal variate (polar Marsaglia method
// with a cached spare).
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// ExpFloat64 returns an Exp(1) variate.
func (r *Rand) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
