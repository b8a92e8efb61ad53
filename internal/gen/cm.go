package gen

import (
	"fmt"

	"scalefree/internal/graph"
)

// CMConfig parameterizes the configuration model (paper §III-C,
// Appendix B).
type CMConfig struct {
	// N is the number of nodes.
	N int
	// M is the minimum degree of the prescribed sequence.
	M int
	// KC is the maximum degree of the prescribed sequence; NoCutoff (0)
	// uses kc = N, the paper's "no cutoff" convention for CM.
	KC int
	// Gamma is the target degree-distribution exponent
	// (paper uses 2.2, 2.6, 3.0).
	Gamma float64
}

func (c CMConfig) validate() error {
	if c.M < 1 {
		return fmt.Errorf("%w: m=%d", ErrBadStubs, c.M)
	}
	if c.N < 2 {
		return fmt.Errorf("%w: n=%d", ErrBadN, c.N)
	}
	if !(c.Gamma > 1) {
		return fmt.Errorf("%w: gamma=%v", ErrBadGamma, c.Gamma)
	}
	if c.KC != NoCutoff && c.KC < c.M {
		return fmt.Errorf("%w: kc=%d < m=%d", ErrBadCutoff, c.KC, c.M)
	}
	return nil
}

// CMFrozen generates an uncorrelated random graph with a power-law degree
// sequence P(k) ∝ k^-Gamma on [M, KC] via the configuration model, built
// straight into a CSR snapshot:
//
//  1. Draw a degree sequence from the target distribution, adjusting one
//     entry so the stub total is even.
//  2. Wire uniformly random stub pairs (self-loops and multi-edges
//     allowed).
//  3. Delete self-loops and multi-edges (paper §III-C), which "gives a
//     very marginal error in the degree distribution exponent" and may
//     leave a few nodes below degree M — Fig. 2 shows exactly this.
//
// Note on fidelity: Appendix B's pseudo-code pairs each remaining stub
// with a uniformly random *node*; the standard (and intended) algorithm
// pairs uniformly random *stubs*, which is what the cited references
// [56–58] define and what reproduces the prescribed degree sequence. We
// implement stub pairing and document the difference here.
//
// The randomness splits into the "cm.degrees" phase (sampled in
// fixed-size chunks, one sub-stream per chunk, so any number of workers
// draws identical degrees), the "cm.parity" phase (the even-total repair),
// and the "cm.wire" phase (the stub shuffle, sequential by nature); degree
// sampling and the stub-list setup fan out across Build.Workers
// goroutines. Output is bit-for-bit identical for every Workers value.
//
// The shuffled stub array is the pair stream (stubs 2i and 2i+1 wire one
// edge), which graph.SimplifyPairs scatters into the snapshot's arrays
// where it lies and cleans up by replaying the deletions row by row, as
// Graph.Simplify deletes them from a wired Graph: the snapshot — offsets,
// neighbor order, Stats — is the one that wiring the pairs into a Graph,
// simplifying and freezing it gives, but the build never allocates
// per-node adjacency slices and holds one stub-length array beside the
// snapshot. The snapshot's neighbor array keeps the multigraph's capacity
// — the stub count — for its lifetime. Build.Arena, when set, recycles the
// build's transient buffers, and the result refills the arrays of the
// snapshot retired into it (CSRArena.Recycle) where they fit.
func CMFrozen(cfg CMConfig, b Build) (*graph.Frozen, Stats, error) {
	var st Stats
	stubs, err := cmShuffledStubs(cfg, b)
	if err != nil {
		return nil, st, err
	}
	f, selfLoops, multiEdges := graph.SimplifyPairs(cfg.N, stubs, b.workers(), b.Arena)
	b.Arena.Release(stubs)
	st.SelfLoopsRemoved, st.MultiEdgesRemoved = selfLoops, multiEdges
	return f, st, nil
}

// cmShuffledStubs runs CMFrozen's randomized front half — degree
// sampling, parity repair, stub expansion, wire shuffle — and returns the
// shuffled stub array, the pair stream CMFrozen scatters and the tests'
// Graph-based reference wires edge by edge.
func cmShuffledStubs(cfg CMConfig, b Build) ([]int32, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	kc := cfg.KC
	if kc == NoCutoff || kc > cfg.N {
		kc = cfg.N
	}
	seq := powerLawDegreeSequence(cfg.N, cfg.M, kc, cfg.Gamma, b)
	stubs := stubList(seq, b)
	b.Arena.Release(seq)
	wire := b.Phases.Stream("cm.wire")
	wire.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	return stubs, nil
}

// powerLawDegreeSequence draws n degrees from P(k) ∝ k^-gamma on
// [kMin, kMax]. Chunk c of the sequence draws from the (seed, realization,
// "cm.degrees", c) sub-stream, so the sampled degrees are identical no
// matter how many goroutines process the chunks. If the total is odd, one
// entry drawn from the "cm.parity" stream is bumped by ±1, preferring to
// stay inside [kMin, kMax]; in the degenerate kMin == kMax case it is
// decremented below the bound — parity must win, and the paper's own
// cleanup phase already tolerates degrees below m. Degrees never exceed
// kMax <= n, so the sequence is int32 scratch from Build.Arena, which
// cmShuffledStubs releases once stubList has expanded it.
func powerLawDegreeSequence(n, kMin, kMax int, gamma float64, b Build) []int32 {
	seq := b.Arena.Grab(n)
	subtotals := make([]int, chunks(n))
	// One read-only table shared by every chunk worker — bit-identical to
	// rng.PowerLawInt per draw (see plcache.go), so the phase contract is
	// untouched.
	table := powerLawTable(kMin, kMax, gamma, b)
	b.forChunks(n, func(chunk, lo, hi int) {
		rng := b.Phases.Chunk("cm.degrees", chunk)
		t := 0
		for i := lo; i < hi; i++ {
			k := table.Sample(rng)
			seq[i] = int32(k)
			t += k
		}
		subtotals[chunk] = t
	})
	total := 0
	for _, t := range subtotals {
		total += t
	}
	if total%2 == 1 {
		i := b.Phases.Stream("cm.parity").Intn(n)
		if int(seq[i]) < kMax {
			seq[i]++
		} else {
			seq[i]--
		}
	}
	return seq
}

// stubList expands a degree sequence into the stub array (node u appearing
// seq[u] times, in node order). The expansion is RNG-free; a parallel
// build fills disjoint chunk ranges from the sequence's prefix sums, a
// serial build appends — both produce the identical array. The
// array comes from Build.Arena when one is set (CMFrozen releases it after
// wiring), so repeated pipeline builds reuse it.
func stubList(seq []int32, b Build) []int32 {
	if b.workers() <= 1 {
		stubs := b.Arena.Grab(sum(seq))[:0]
		for u, k := range seq {
			for i := int32(0); i < k; i++ {
				stubs = append(stubs, int32(u))
			}
		}
		return stubs
	}
	n := len(seq)
	// Stub totals fit int32 comfortably (2E entries, and the CSR layout is
	// int32 throughout), so the prefix sums can live in arena scratch.
	offsets := b.Arena.Grab(n + 1)
	offsets[0] = 0
	for u, k := range seq {
		offsets[u+1] = offsets[u] + k
	}
	stubs := b.Arena.Grab(int(offsets[n]))
	b.forChunks(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for p := offsets[u]; p < offsets[u+1]; p++ {
				stubs[p] = int32(u)
			}
		}
	})
	b.Arena.Release(offsets)
	return stubs
}

func sum(xs []int32) int {
	t := 0
	for _, x := range xs {
		t += int(x)
	}
	return t
}
