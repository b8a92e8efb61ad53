package gen

import (
	"sync"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// Build describes how a generator draws randomness and schedules its
// internal work. A generator splits its randomness into named phase
// sub-streams (xrand.Phases — derived solely from (seed, realization,
// phase)) and may parallelize phases whose chunk boundaries are fixed, so
// the generated topology is bit-for-bit identical for every Workers value
// and on every pipeline worker. The zero Build is a serial build of
// realization 0 at seed 0.
type Build struct {
	// Phases keys every phase sub-stream the generator draws from.
	Phases xrand.Phases
	// Workers bounds intra-generator parallelism; <=1 runs every phase on
	// the calling goroutine. Output is identical for every value — only
	// wall-clock changes.
	Workers int
	// Arena, when non-nil, lends the build its whole working set: the
	// direct-to-CSR builders' edge chunks and count/scatter/replay scratch,
	// the Graph PA, HAPA and DAPA grow and DAPA's ID maps, and every
	// generator's int32 scratch (stub lists, degree sequences, flood marks
	// and queues). What a build returns from an arena — a growth Graph, an
	// Overlay — stays valid only until the arena's next build. A Frozen
	// (CMFrozen, GRNFrozen, or a growth Graph frozen with Arena.Freeze)
	// outlives every later build: its arrays are the arena's only if its
	// owner retired a snapshot into it (Arena.Recycle), whose arrays the
	// freeze refilled, and they stay valid until the owner retires the
	// result in turn. The experiment engine retires a snapshot its lane
	// minted after the snapshot's last sweep returns, and a sweep keeps no
	// reference to it past its return. Output is identical with or without
	// an arena; only allocation traffic changes. The experiment pipeline
	// hands each build lane its own arena; an arena must not serve two
	// concurrent builds.
	Arena *graph.CSRArena
}

// NewBuild returns a Build for one realization.
func NewBuild(phases xrand.Phases, workers int) Build {
	return Build{Phases: phases, Workers: workers}
}

// workers returns the effective parallelism bound (>=1).
func (b Build) workers() int {
	if b.Workers < 1 {
		return 1
	}
	return b.Workers
}

// buildChunk is the fixed chunk size of parallelized phases. It is a
// constant on purpose: chunk boundaries (and therefore the per-chunk RNG
// streams) must never depend on the worker count, or output would change
// with parallelism.
const buildChunk = 8192

// chunks returns the number of buildChunk-sized chunks covering n items.
func chunks(n int) int { return (n + buildChunk - 1) / buildChunk }

// forChunks runs fn(chunk, lo, hi) for every buildChunk-sized chunk of
// [0, n), fanning the chunks across up to b.workers() goroutines. fn must
// write only to chunk-disjoint state (its own index range, its own
// accumulator slot); under that contract the result is identical for any
// worker count, including the serial in-order walk used when workers<=1.
func (b Build) forChunks(n int, fn func(chunk, lo, hi int)) {
	nc := chunks(n)
	w := b.workers()
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for c := 0; c < nc; c++ {
			lo := c * buildChunk
			hi := lo + buildChunk
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			// Static striding: worker g owns chunks g, g+w, g+2w, ...
			// Assignment does not affect output (chunks are independent),
			// only load balance, for which striding is fine.
			for c := g; c < nc; c += w {
				lo := c * buildChunk
				hi := lo + buildChunk
				if hi > n {
					hi = n
				}
				fn(c, lo, hi)
			}
		}(g)
	}
	wg.Wait()
}
