package xrand

// Phase sub-streams: the build-side counterpart of the query scheduler's
// (seed, realization, source) streams. A realization's topology build is
// decomposed into named phases ("cm.degrees", "dapa.select", ...), each
// drawing from its own RNG derived solely from (seed, realization, phase)
// — never from which pipeline worker runs the build, how many values any
// other phase consumed, or how the phase's own work is chunked across
// goroutines. That is what lets the experiment engine generate realization
// r+1 on any build worker, or parallelize inside a generator, while
// producing output bit-for-bit identical to a fully serial build.

// phaseTag domain-separates phase streams from the (seed, realization,
// source) query streams: a phase path is (realization, phaseTag, key[,
// chunk]) while a source path is (realization, source), so the two
// families can never alias even if a phase key happened to collide with a
// small source index.
const phaseTag = 0x7068617365746167 // "phasetag"

// PhaseKey hashes a phase name into a stream-path component (FNV-1a 64).
// Exposed so tests can pin the derivation.
func PhaseKey(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Phases derives the named phase sub-streams of one realization's build.
// The zero value is a valid derivation root (seed 0, realization 0);
// copies are free and safe — Phases holds no RNG state, every call
// derives a fresh stream.
type Phases struct {
	// Seed is the experiment's root seed.
	Seed uint64
	// Realization is the realization index the build belongs to.
	Realization uint64
}

// Stream returns the RNG for the named phase:
// NewStream(seed, realization, phaseTag, PhaseKey(name)). Calling it twice
// with the same name returns two independent RNG values positioned at the
// same stream start; a phase that must be consumed sequentially should
// derive once and thread the *RNG through.
func (p Phases) Stream(name string) *RNG {
	return NewStream(p.Seed, p.Realization, phaseTag, PhaseKey(name))
}

// Chunk returns the RNG for one fixed-size chunk of a parallelized phase.
// Chunk boundaries must depend only on the problem size (never on the
// worker count), so that any number of goroutines processing the chunks
// draws exactly the same values per chunk.
func (p Phases) Chunk(name string, chunk int) *RNG {
	return NewStream(p.Seed, p.Realization, phaseTag, PhaseKey(name), uint64(chunk))
}

// ChunkRoot is the part of a chunk stream's derivation that does not
// depend on the chunk: (seed, realization, phaseTag, PhaseKey(name))
// folded once, so each U01 costs one fold and one state word instead of
// re-hashing the name and re-folding four path components per draw (the
// DES latency model draws one value per message sent).
type ChunkRoot struct{ x uint64 }

// ChunkRoot returns the derivation root of the named phase's chunks.
func (p Phases) ChunkRoot(name string) ChunkRoot {
	x := mix64(p.Seed + 0x6a09e667f3bcc909)
	for _, q := range [...]uint64{p.Realization, phaseTag, PhaseKey(name)} {
		x = mix64(x ^ (q + 0x9e3779b97f4a7c15))
	}
	return ChunkRoot{x}
}

// U01 returns the first uniform [0, 1) value of the root's chunk stream,
// bit-identical to NewStream(seed, realization, phaseTag, PhaseKey(name),
// chunk).Float64() — Chunk(name, chunk).Float64() for a chunk that fits an
// int. The key is a uint64 on every platform, so a 64-bit edge key (the
// DES packs an edge's two node IDs into one) needs no int conversion on a
// 32-bit build. xoshiro256**'s first
// output reads only s1, the second splitmix64 word of the seed expansion,
// so the other three state words are never computed.
func (r ChunkRoot) U01(chunk uint64) float64 {
	x := mix64(r.x ^ (chunk + 0x9e3779b97f4a7c15))
	s1 := mix64(x + 0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15) // splitmix64's second step
	return float64((rotl(s1*5, 7)*9)>>11) / (1 << 53)
}
