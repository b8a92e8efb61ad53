// Package xrand provides a small, deterministic random number generator used
// throughout the library.
//
// All topology generators, search algorithms, and simulations take an
// explicit *RNG (or a seed from which one is derived). The generator is a
// hand-rolled xoshiro256** seeded through splitmix64, so sequences are
// reproducible bit-for-bit across Go releases and platforms — a property the
// standard library does not guarantee. Reproducibility matters here because
// the experiment harness records seeds alongside results, letting any figure
// in EXPERIMENTS.md be regenerated exactly.
//
// RNG is NOT safe for concurrent use. Parallel simulations derive an
// independent stream per goroutine with Split, which is cheap and produces
// statistically independent streams.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator
// (xoshiro256** with splitmix64 seeding).
// The zero value is not usable; construct with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns an RNG seeded from the given seed. Any seed value, including
// zero, yields a well-mixed internal state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed expands seed into the full xoshiro state through splitmix64.
func (r *RNG) seed(seed uint64) {
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
	r.s2 = splitmix64(&seed)
	r.s3 = splitmix64(&seed)
}

// splitmix64 advances *x and returns the next splitmix64 output. It is used
// only to expand seeds into full xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	return mix64(*x)
}

// mix64 is the splitmix64 finalizer: a strong 64-bit bijective mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream derives a deterministic RNG for one position in a nested
// experiment, identified by a path of indices under a root seed — e.g.
// NewStream(seed, realization, source) for the source-sharded query
// scheduler. The stream depends only on (seed, path): never on scheduling
// order, worker count, or how many values any other stream consumed. Each
// path component passes through the splitmix64 finalizer, so neighboring
// indices yield statistically independent streams, and an offset constant
// domain-separates the result from New(seed) and its Split descendants.
func NewStream(seed uint64, path ...uint64) *RNG {
	r := StreamValue(seed, path...)
	return &r
}

// StreamValue is NewStream returning the generator by value: the same state
// and so the same outputs, but a caller that draws a few numbers and drops
// the generator (one source node per flooded source, say) keeps it on its
// stack instead of allocating one per draw.
func StreamValue(seed uint64, path ...uint64) RNG {
	x := mix64(seed + 0x6a09e667f3bcc909)
	for _, p := range path {
		x = mix64(x ^ (p + 0x9e3779b97f4a7c15))
	}
	var r RNG
	r.seed(x)
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent RNG stream from r. The derived stream is
// seeded from fresh output of r, so successive Split calls give distinct,
// statistically independent generators. Use one split stream per goroutine.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SplitN returns n independent streams derived from r.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; callers validate n at API boundaries.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits scaled to [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed float64 with rate 1.
func (r *RNG) Exp() float64 {
	// Inverse transform; guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// PowerLawInt samples an integer k in [kMin, kMax] from a discrete power-law
// distribution P(k) ∝ k^(-gamma). It uses the standard continuous
// approximation (Clauset et al.): sample x from the continuous power law on
// [kMin-1/2, kMax+1/2) by inverse transform, then round to the nearest
// integer. This keeps the discrete distribution consistent with the shifted
// Hill/MLE estimator used in internal/stats. It is the sampler behind
// configuration-model degree sequences.
// It panics if kMin < 1, kMax < kMin, or gamma <= 1.
//
// Each call rebuilds the transform's constants (two of its three math.Pow
// calls). Loop callers should hoist them with NewPowerLawSampler (one Pow
// per draw) or NewPowerLawTable (no Pow per draw); both are bit-identical
// to this method with identical RNG consumption.
func (r *RNG) PowerLawInt(kMin, kMax int, gamma float64) int {
	return NewPowerLawSampler(kMin, kMax, gamma).Sample(r)
}

// Choose returns a uniformly random element index from a slice of length n
// weighted by the provided weights. The total must be positive; Choose
// returns -1 if it is not. Used for preferential attachment over explicit
// candidate lists.
func (r *RNG) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return -1
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
