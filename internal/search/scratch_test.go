package search

import (
	"math"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// scratchTestGraph builds the shared search topology: a connected PA graph
// large enough that floods exercise deep frontiers and hubs.
func scratchTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 2, KC: 40}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scratchTestFrozen is the CSR snapshot of scratchTestGraph, the form the
// Scratch kernels consume.
func scratchTestFrozen(t testing.TB) *graph.Frozen {
	return scratchTestGraph(t).Freeze()
}

func sameResult(t *testing.T, name string, a, b Result) {
	t.Helper()
	if len(a.Hits) != len(b.Hits) || len(a.Messages) != len(b.Messages) {
		t.Fatalf("%s: length mismatch: hits %d vs %d, messages %d vs %d",
			name, len(a.Hits), len(b.Hits), len(a.Messages), len(b.Messages))
	}
	for i := range a.Hits {
		if a.Hits[i] != b.Hits[i] {
			t.Fatalf("%s: Hits[%d] = %d, want %d", name, i, b.Hits[i], a.Hits[i])
		}
	}
	for i := range a.Messages {
		if a.Messages[i] != b.Messages[i] {
			t.Fatalf("%s: Messages[%d] = %d, want %d", name, i, b.Messages[i], a.Messages[i])
		}
	}
}

// TestScratchMatchesPackageFunctions pins the contract that a reused
// Scratch produces bit-identical results to a fresh one (same traversal
// order, same RNG consumption), across many consecutive searches on one
// scratch.
func TestScratchMatchesPackageFunctions(t *testing.T) {
	t.Parallel()
	g := scratchTestGraph(t)
	f := g.Freeze()
	s := NewScratch(0) // deliberately unsized: buffers must grow on demand
	for _, src := range []int{0, 7, 99, 1234} {
		a, err := new(Scratch).Flood(f, src, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Flood(f, src, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "flood", a, b)

		an, err := new(Scratch).NormalizedFlood(f, src, 6, 2, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		bn, err := s.NormalizedFlood(f, src, 6, 2, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "nf", an, bn)

		aw, err := new(Scratch).RandomWalk(f, src, 500, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		bw, err := s.RandomWalk(f, src, 500, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "rw", aw, bw)

		arw, anf, err := new(Scratch).RandomWalkWithNFBudget(f, src, 6, 2, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		brw, bnf, err := s.RandomWalkWithNFBudget(f, src, 6, 2, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "rw-budget/rw", arw, brw)
		sameResult(t, "rw-budget/nf", anf, bnf)
	}
}

// TestScratchLoadMatchesPackageFunctions does the same for the
// load-charging NF kernel.
func TestScratchLoadMatchesPackageFunctions(t *testing.T) {
	t.Parallel()
	g := scratchTestGraph(t)
	f := g.Freeze()
	s := NewScratch(f.N())
	for _, src := range []int{3, 42} {
		la, lb := NewLoad(g.N()), NewLoad(g.N())
		if err := new(Scratch).NormalizedFloodLoad(f, src, 5, 2, xrand.New(13), la); err != nil {
			t.Fatal(err)
		}
		if err := s.NormalizedFloodLoad(f, src, 5, 2, xrand.New(13), lb); err != nil {
			t.Fatal(err)
		}
		for v := range la.Forwards {
			if la.Forwards[v] != lb.Forwards[v] || la.Receipts[v] != lb.Receipts[v] {
				t.Fatalf("nf load diverges at node %d", v)
			}
		}
	}
}

// TestScratchValidation checks the scratch methods reject bad input like
// the package functions do.
func TestScratchValidation(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(0)
	if _, err := s.Flood(f, -1, 3); err == nil {
		t.Fatal("bad source should error")
	}
	if _, err := s.Flood(f, 0, -1); err == nil {
		t.Fatal("negative TTL should error")
	}
	if _, err := s.NormalizedFlood(f, 0, 3, 0, xrand.New(1)); err == nil {
		t.Fatal("kMin=0 should error")
	}
	if _, err := s.RandomWalk(f, f.N(), 3, xrand.New(1)); err == nil {
		t.Fatal("out-of-range source should error")
	}
}

// TestScratchEpochWrap forces the epoch counter to its int32 ceiling and
// checks the visited marks are rebuilt rather than misread.
func TestScratchEpochWrap(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	want, err := s.Flood(f, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := append([]int(nil), want.Hits...)
	s.epoch = math.MaxInt32 // next newEpoch must clear and restart
	got, err := s.Flood(f, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantHits {
		if got.Hits[i] != wantHits[i] {
			t.Fatalf("after epoch wrap Hits[%d] = %d, want %d", i, got.Hits[i], wantHits[i])
		}
	}
}

// TestScratchGrowsAcrossGraphs checks one scratch can serve graphs of
// different sizes back to back (the per-worker reuse pattern in
// internal/sim).
func TestScratchGrowsAcrossGraphs(t *testing.T) {
	t.Parallel()
	small, _, err := gen.PA(gen.PAConfig{N: 200, M: 2}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	big := scratchTestFrozen(t)
	s := NewScratch(0)
	for _, f := range []*graph.Frozen{small.Freeze(), big, small.Freeze(), big} {
		res, err := s.Flood(f, 0, 30)
		if err != nil {
			t.Fatal(err)
		}
		if res.HitsAt(30) != f.N() {
			// Both graphs are connected PA graphs; a 30-hop flood covers
			// them entirely.
			t.Fatalf("flood on n=%d covered %d nodes", f.N(), res.HitsAt(30))
		}
	}
}

// --- Allocation regression -------------------------------------------

// The whole point of Scratch: after warmup, repeated searches on one
// topology allocate nothing.

func TestScratchFloodZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	// Warmup: a full-coverage flood grows the frontier queue to its
	// maximum (N) and sizes the result arena.
	if _, err := s.Flood(f, 17, 30); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Flood(f, 17, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Flood with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchRandomWalkZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	rng := xrand.New(23)
	if _, err := s.RandomWalk(f, 17, 2000, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.RandomWalk(f, 17, 2000, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RandomWalk with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchNormalizedFloodZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	rng := xrand.New(29)
	// Warmup: a full flood sizes the queues to N, and one NF pass sizes
	// the candidate buffer; afterwards no NF search can need more.
	if _, err := s.Flood(f, 17, 30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.NormalizedFlood(f, 17, 8, 2, rng); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.NormalizedFlood(f, 17, 8, 2, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NormalizedFlood with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchLoadKernelsZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	load := NewLoad(f.N())
	rng := xrand.New(41)
	if err := s.NormalizedFloodLoad(f, 17, 30, f.N(), rng, load); err != nil {
		t.Fatal(err)
	}
	if err := s.NormalizedFloodLoad(f, 17, 8, 2, rng, load); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.NormalizedFloodLoad(f, 17, 6, f.N(), rng, load); err != nil {
			t.Fatal(err)
		}
		if err := s.NormalizedFloodLoad(f, 17, 8, 2, rng, load); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("load kernels with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

// --- Benchmarks --------------------------------------------------------

// The scratch/fresh pairs below are the before/after record for the
// allocation-free kernels; run with `go test -bench=Scratch -benchmem`.

func BenchmarkScratchFlood(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Flood(f, i%f.N(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreshFlood(b *testing.B) {
	g := scratchTestGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(Scratch).Flood(g.Freeze(), i%g.N(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScratchNormalizedFlood(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NormalizedFlood(f, i%f.N(), 8, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreshNormalizedFlood(b *testing.B) {
	g := scratchTestGraph(b)
	rng := xrand.New(31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(Scratch).NormalizedFlood(g.Freeze(), i%g.N(), 8, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScratchRandomWalkNFBudget(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RandomWalkWithNFBudget(f, i%f.N(), 8, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}
