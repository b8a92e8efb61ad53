package xrand

import "math"

// This file holds the two power-law sampling kernels behind PowerLawInt:
//
//   - PowerLawSampler hoists the per-call invariants (lo, hi, 1/a) of the
//     Clauset continuous inverse transform, leaving one math.Pow per draw.
//   - PowerLawTable additionally precomputes the transform's value at every
//     half-integer boundary in [kMin, kMax], so a draw classifies with
//     comparisons only — no math.Pow on the hot path at all.
//
// Both are bit-identical to the historical three-Pow PowerLawInt kernel and
// consume exactly one Float64 per draw, so swapping them in anywhere (the
// configuration-model degree sequences, the KS reference sampler) cannot
// perturb a single downstream random stream. That contract is pinned by
// property and fuzz tests in powerlaw_test.go.

// PowerLawSampler samples integers k in [kMin, kMax] from P(k) ∝ k^-gamma
// using the same continuous-approximation inverse transform as
// RNG.PowerLawInt, with the per-distribution constants hoisted out of the
// draw loop. A draw costs one Float64 and one math.Pow (down from three
// Pows for the closed-form one-shot kernel).
type PowerLawSampler struct {
	kMin, kMax int
	// lo = (kMin-1/2)^a and hi = (kMax+1/2)^a are the continuous
	// transform's endpoints; invA = 1/a with a = 1-gamma. Stored exactly
	// as the one-shot kernel computes them so Sample reproduces its
	// float operations bit for bit.
	lo, hi, invA float64
}

// NewPowerLawSampler validates the parameters with PowerLawInt's rules
// (panicking on violation, like the RNG method) and hoists the invariants.
func NewPowerLawSampler(kMin, kMax int, gamma float64) PowerLawSampler {
	if kMin < 1 || kMax < kMin {
		panic("xrand: PowerLawInt called with invalid bounds")
	}
	if gamma <= 1 {
		panic("xrand: PowerLawInt called with gamma <= 1")
	}
	a := 1 - gamma
	return PowerLawSampler{
		kMin: kMin,
		kMax: kMax,
		lo:   math.Pow(float64(kMin)-0.5, a),
		hi:   math.Pow(float64(kMax)+0.5, a),
		invA: 1 / a,
	}
}

// Sample draws one integer, consuming exactly one Float64 from r.
func (s PowerLawSampler) Sample(r *RNG) int { return s.fromU(r.Float64()) }

// fromU maps a uniform u in [0,1) to a degree with the identical sequence
// of float64 operations as RNG.PowerLawInt.
func (s PowerLawSampler) fromU(u float64) int {
	x := math.Pow(s.lo+u*(s.hi-s.lo), s.invA)
	k := int(x + 0.5)
	if k < s.kMin {
		k = s.kMin
	}
	if k > s.kMax {
		k = s.kMax
	}
	return k
}

// PowerLawTable is the table-driven fast path for power-law degree
// sampling. It precomputes the continuous transform's value at every
// half-integer boundary between adjacent degrees, so classifying a draw is
// one Float64, one fused multiply-add, and a short search — the math.Pow
// calls that dominate configuration-model build profiles at N=10⁶ happen
// once per (kMin, kMax, gamma), not once (historically three times) per
// sampled degree.
//
// Output is bit-identical to RNG.PowerLawInt with identical RNG
// consumption. The classification happens in the transform's own v-space:
// v := lo + u*(hi-lo) is computed with exactly the float operations the
// exact kernel uses, and the precomputed boundaries bounds[i] =
// (kMin+i+1/2)^a partition v-space into per-degree intervals. Because
// math.Pow is only faithfully rounded (not exactly rounded, and not
// guaranteed monotone), a draw landing within a tiny relative guard band of
// a boundary is re-derived through the exact kernel using the already-drawn
// u — rounding disagreement between the table and the exact kernel is
// confined to that band, so the common case is provably identical and the
// rare band case is identical by construction. The zero-size guard band
// failure mode (a boundary table that is not strictly descending, possible
// only for extreme gamma where the transform underflows) is detected at
// build time and falls back to the exact kernel for every draw.
//
// The table is read-only after construction and safe to share across
// goroutines (gen workers sample disjoint chunks from one table).
type PowerLawTable struct {
	s PowerLawSampler
	// bounds[i] = (kMin+i+1/2)^a for i in [0, kMax-kMin): the v-space
	// boundary between degree kMin+i and kMin+i+1. a < 0 makes the
	// sequence strictly descending, with lo > bounds[0] and
	// bounds[len-1] > hi.
	bounds []float64
	// guard is the relative half-width of the fallback band around each
	// boundary. Faithful-rounding error in v and in the boundaries is a
	// few ulps (≲1e-15 relative); the band is ~1e-12, covering it with
	// orders of magnitude to spare while keeping the fallback probability
	// negligible (~1e-12 per boundary per draw).
	guard float64
	// degenerate marks a table whose boundaries are not usable (not
	// strictly descending, underflowed to zero, or out of the (hi, lo)
	// range). Every draw then takes the exact kernel — still correct,
	// just not accelerated.
	degenerate bool
}

// NewPowerLawTable builds the boundary table for P(k) ∝ k^-gamma on
// [kMin, kMax]. Cost: kMax-kMin math.Pow calls and 8(kMax-kMin) bytes.
// Parameters are validated with PowerLawInt's rules (panics on violation).
func NewPowerLawTable(kMin, kMax int, gamma float64) *PowerLawTable {
	s := NewPowerLawSampler(kMin, kMax, gamma)
	a := 1 - gamma
	t := &PowerLawTable{
		s:      s,
		bounds: make([]float64, kMax-kMin),
		guard:  1e-12 * (1 + math.Abs(a)),
	}
	prev := s.lo
	for i := range t.bounds {
		b := math.Pow(float64(kMin+i)+0.5, a)
		t.bounds[i] = b
		if !(b < prev) || b <= s.hi {
			t.degenerate = true
		}
		prev = b
	}
	return t
}

// Degenerate reports whether the table fell back to the exact kernel for
// every draw (extreme parameters only; see the type comment).
func (t *PowerLawTable) Degenerate() bool { return t.degenerate }

// Sample draws one integer, consuming exactly one Float64 from r. The
// result is bit-identical to what r.PowerLawInt(kMin, kMax, gamma) would
// have returned from the same RNG state.
func (t *PowerLawTable) Sample(r *RNG) int { return t.fromU(r.Float64()) }

// linearPrefix bounds the unrolled scan before binary search takes over.
// Power-law mass concentrates at the smallest degrees (for gamma ≈ 2–3.5
// and kMin 1–2, >90% of draws land within the first handful), so most
// draws never reach the search.
const linearPrefix = 8

func (t *PowerLawTable) fromU(u float64) int {
	if t.degenerate {
		return t.s.fromU(u)
	}
	// Identical float ops to the exact kernel's argument computation.
	v := t.s.lo + u*(t.s.hi-t.s.lo)
	b := t.bounds
	// Find the smallest j with b[j] < v; then v lies in degree kMin+j's
	// interval (j == len(b) means the last degree, and v above b[0]
	// covers the exact kernel's k < kMin clamp region).
	j := 0
	lim := len(b)
	if lim > linearPrefix {
		lim = linearPrefix
	}
	for j < lim && b[j] >= v {
		j++
	}
	if j == lim && lim < len(b) {
		lo, hi := lim, len(b)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < v {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		j = lo
	}
	// Within the guard band of either enclosing boundary the exact
	// kernel's rounding is not predictable from the table; re-derive from
	// the same u (no extra RNG consumption).
	if j < len(b) && v-b[j] <= t.guard*b[j] {
		return t.s.fromU(u)
	}
	if j > 0 && b[j-1]-v <= t.guard*b[j-1] {
		return t.s.fromU(u)
	}
	return t.s.kMin + j
}
