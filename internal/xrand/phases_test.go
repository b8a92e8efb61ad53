package xrand

import "testing"

// TestPhasesDerivation pins the phase-stream contract: streams depend only
// on (seed, realization, phase[, chunk]), distinct names/chunks give
// distinct streams, and repeated derivation is idempotent.
func TestPhasesDerivation(t *testing.T) {
	t.Parallel()
	p := Phases{Seed: 7, Realization: 3}
	a1 := p.Stream("cm.degrees").Uint64()
	a2 := p.Stream("cm.degrees").Uint64()
	if a1 != a2 {
		t.Fatal("repeated Stream derivation is not idempotent")
	}
	if b := p.Stream("cm.wire").Uint64(); b == a1 {
		t.Fatal("distinct phase names produced the same stream")
	}
	if c := (Phases{Seed: 7, Realization: 4}).Stream("cm.degrees").Uint64(); c == a1 {
		t.Fatal("distinct realizations produced the same stream")
	}
	if d := (Phases{Seed: 8, Realization: 3}).Stream("cm.degrees").Uint64(); d == a1 {
		t.Fatal("distinct seeds produced the same stream")
	}
	c0 := p.Chunk("cm.degrees", 0).Uint64()
	c1 := p.Chunk("cm.degrees", 1).Uint64()
	if c0 == c1 {
		t.Fatal("distinct chunks produced the same stream")
	}
	if c0 == a1 {
		t.Fatal("chunk 0 aliases the phase stream")
	}
}

// TestPhasesDomainSeparation checks phase streams cannot alias the query
// scheduler's (seed, realization, source) streams for small source
// indices, thanks to the phaseTag path component.
func TestPhasesDomainSeparation(t *testing.T) {
	t.Parallel()
	p := Phases{Seed: 7, Realization: 0}
	phase := p.Stream("dapa.select").Uint64()
	for s := uint64(0); s < 64; s++ {
		if NewStream(7, 0, s).Uint64() == phase {
			t.Fatalf("phase stream aliases source stream s=%d", s)
		}
	}
}

// TestPhaseKeyStability pins the FNV-1a derivation so a refactor cannot
// silently re-seed every phased experiment.
func TestPhaseKeyStability(t *testing.T) {
	t.Parallel()
	if got, want := PhaseKey(""), uint64(14695981039346656037); got != want {
		t.Fatalf("PhaseKey(\"\") = %d, want %d", got, want)
	}
	if PhaseKey("cm.degrees") == PhaseKey("cm.wire") {
		t.Fatal("distinct names hash equal")
	}
}

// requireChunkRootU01 checks the hoisted derivation against the
// RNG-materializing one for a single (seed, realization, name, chunk).
func requireChunkRootU01(t *testing.T, seed, realization uint64, name string, chunk int) {
	t.Helper()
	p := Phases{Seed: seed, Realization: realization}
	want := p.Chunk(name, chunk).Float64()
	if got := p.ChunkRoot(name).U01(chunk); got != want {
		t.Fatalf("Phases{%d, %d}.ChunkRoot(%q).U01(%d) = %v, Chunk(...).Float64() = %v",
			seed, realization, name, chunk, got, want)
	}
}

// TestChunkRootU01MatchesChunk pins ChunkRoot.U01 — one fold and one
// splitmix word per draw — to the full NewStream → New → Float64 chain,
// including one root reused across many chunks (how the DES uses it), and
// requires the derivation not to allocate.
func TestChunkRootU01MatchesChunk(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{0, 1, 2007, 1<<64 - 1} {
		for _, realization := range []uint64{0, 9, 1 << 40} {
			for _, name := range []string{"", "des.latency", "des.fail.linkat", "cm.degrees"} {
				for _, chunk := range []int{0, 1, -1, 1 << 32, 3<<32 | 7, 1<<63 - 1} {
					requireChunkRootU01(t, seed, realization, name, chunk)
				}
			}
		}
	}
	p := Phases{Seed: 5, Realization: 2}
	root := p.ChunkRoot("des.latency")
	for chunk := 0; chunk < 2000; chunk++ {
		if got, want := root.U01(chunk), p.Chunk("des.latency", chunk).Float64(); got != want {
			t.Fatalf("reused root, chunk %d: %v, want %v", chunk, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = p.ChunkRoot("des.latency").U01(123) }); allocs > 0 {
		t.Fatalf("ChunkRoot(...).U01 allocates %v/op", allocs)
	}
}

func FuzzChunkRootU01(f *testing.F) {
	f.Add(uint64(0), uint64(0), "", 0)
	f.Add(uint64(2007), uint64(3), "des.latency", 17<<32|4242)
	f.Add(uint64(1<<64-1), uint64(1<<64-1), "des.fail.node", -1)
	f.Fuzz(func(t *testing.T, seed, realization uint64, name string, chunk int) {
		requireChunkRootU01(t, seed, realization, name, chunk)
	})
}
