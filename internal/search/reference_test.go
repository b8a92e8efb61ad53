package search

// Reference implementations of the search kernels, preserved verbatim from
// the pre-CSR slice-of-slices code path (per-node adjacency slices +
// bounds-checked Graph methods). They exist for two reasons:
//
//  1. Equivalence: the frozen kernels must stay bit-for-bit identical to
//     these — same hits, same messages, same RNG draw sequence — across
//     random topologies and seeds (TestFrozenKernels*Equivalence below).
//  2. Benchmarks: BenchmarkReference* vs BenchmarkScratch* in
//     scratch_test.go is the before/after record of the CSR migration
//     (BENCH_PR2.json holds the snapshot of both:
//     `git show 04c8318:BENCH_PR2.json`).

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// referenceFlood is the historical Flood kernel on the mutable Graph.
func referenceFlood(g *graph.Graph, src, maxTTL int) Result {
	n := g.N()
	mark := make([]bool, n)
	depth := make([]int32, n)
	res := Result{Hits: make([]int, maxTTL+1), Messages: make([]int, maxTTL+1)}
	mark[src] = true
	queue := []int32{int32(src)}
	hits, msgs := 0, 0
	prevDepth := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := int(depth[u])
		if du > prevDepth {
			for t := prevDepth; t < du; t++ {
				res.Hits[t] = hits
				res.Messages[t+1] = msgs
			}
			prevDepth = du
		}
		hits++
		if du == maxTTL {
			continue
		}
		deg := g.Degree(int(u))
		if du == 0 {
			msgs += deg
		} else if deg > 0 {
			msgs += deg - 1
		}
		for _, w := range g.Neighbors(int(u)) {
			if !mark[w] {
				mark[w] = true
				depth[w] = int32(du + 1)
				queue = append(queue, w)
			}
		}
	}
	for t := prevDepth; t <= maxTTL; t++ {
		res.Hits[t] = hits
		if t+1 <= maxTTL {
			res.Messages[t+1] = msgs
		}
	}
	res.Messages[0] = 0
	return res
}

// referenceNFTargets mirrors Scratch.nfTargets on the slice-of-slices path.
func referenceNFTargets(g *graph.Graph, u, sender int32, kMin int, rng *xrand.RNG) []int32 {
	var cand []int32
	for _, w := range g.Neighbors(int(u)) {
		if w != sender {
			cand = append(cand, w)
		}
	}
	if len(cand) <= kMin {
		return cand
	}
	for i := 0; i < kMin; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return cand[:kMin]
}

// referenceNormalizedFlood is the historical NF kernel.
func referenceNormalizedFlood(g *graph.Graph, src, maxTTL, kMin int, rng *xrand.RNG) Result {
	n := g.N()
	mark := make([]bool, n)
	depth := make([]int32, n)
	res := Result{Hits: make([]int, maxTTL+1), Messages: make([]int, maxTTL+1)}
	mark[src] = true
	queue := []int32{int32(src)}
	from := []int32{-1}
	hits, msgs := 0, 0
	prevDepth := 0
	for head := 0; head < len(queue); head++ {
		u, sender := queue[head], from[head]
		du := int(depth[u])
		if du > prevDepth {
			for t := prevDepth; t < du; t++ {
				res.Hits[t] = hits
				res.Messages[t+1] = msgs
			}
			prevDepth = du
		}
		hits++
		if du == maxTTL {
			continue
		}
		targets := referenceNFTargets(g, u, sender, kMin, rng)
		msgs += len(targets)
		for _, w := range targets {
			if !mark[w] {
				mark[w] = true
				depth[w] = int32(du + 1)
				queue = append(queue, w)
				from = append(from, u)
			}
		}
	}
	for t := prevDepth; t <= maxTTL; t++ {
		res.Hits[t] = hits
		if t+1 <= maxTTL {
			res.Messages[t+1] = msgs
		}
	}
	res.Messages[0] = 0
	return res
}

// referenceNeighborExcluding is the historical bounds-checked
// Graph.RandomNeighborExcluding: a uniformly random neighbor of u other
// than excl, or -1 if none exists, by one Intn over the eligible entries.
func referenceNeighborExcluding(g *graph.Graph, u, excl int, rng *xrand.RNG) int {
	if uint(u) >= uint(g.N()) {
		return -1
	}
	a := g.Neighbors(u)
	n := 0
	for _, v := range a {
		if int(v) != excl {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	pick := rng.Intn(n)
	for _, v := range a {
		if int(v) != excl {
			if pick == 0 {
				return int(v)
			}
			pick--
		}
	}
	return -1 // unreachable
}

// referenceRandomWalk is the historical non-backtracking walk on
// referenceNeighborExcluding.
func referenceRandomWalk(g *graph.Graph, src, steps int, rng *xrand.RNG) Result {
	res := Result{Hits: make([]int, steps+1), Messages: make([]int, steps+1)}
	mark := make([]bool, g.N())
	mark[src] = true
	hits := 1
	res.Hits[0] = 1
	cur, prev := src, -1
	for t := 1; t <= steps; t++ {
		next := referenceNeighborExcluding(g, cur, prev, rng)
		if next < 0 {
			if prev >= 0 {
				next = prev
			} else {
				res.Hits[t] = hits
				res.Messages[t] = res.Messages[t-1]
				continue
			}
		}
		prev, cur = cur, next
		if !mark[cur] {
			mark[cur] = true
			hits++
		}
		res.Hits[t] = hits
		res.Messages[t] = t
	}
	return res
}

// referenceSearchGraphs yields a spread of topology shapes: PA with and
// without cutoffs, CM multigraph survivors, trees, and sparse disconnected
// graphs.
func referenceSearchGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for i, cfg := range []gen.PAConfig{
		{N: 500, M: 1},
		{N: 700, M: 2, KC: 10},
		{N: 900, M: 3, KC: 40},
	} {
		g, _, err := gen.PA(cfg, xrand.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	cm, _, err := gen.CMFrozen(gen.CMConfig{N: 600, M: 1, Gamma: 2.3}, gen.NewBuild(xrand.Phases{Seed: 55}, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The reference kernels walk a Graph, so copy the simple CM snapshot's
	// edges into one; both kernels then read the copy's rows.
	g := graph.New(cm.N())
	for u := 0; u < cm.N(); u++ {
		for _, v := range cm.Neighbors(u) {
			if int(v) > u {
				if err := g.AddEdge(u, int(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	gs = append(gs, g) // disconnected: floods saturate below N
	return gs
}

// TestFrozenKernelsFloodEquivalence: the CSR Flood matches the historical
// kernel on every graph shape and source.
func TestFrozenKernelsFloodEquivalence(t *testing.T) {
	t.Parallel()
	for gi, g := range referenceSearchGraphs(t) {
		f := g.Freeze()
		s := NewScratch(0)
		for _, src := range []int{0, 1, g.N() / 2, g.N() - 1} {
			for _, ttl := range []int{0, 1, 4, 12} {
				want := referenceFlood(g, src, ttl)
				got, err := s.Flood(f, src, ttl)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "flood", want, got)
				_ = gi
			}
		}
	}
}

// TestFrozenKernelsNFEquivalence: the CSR NF consumes the same RNG stream
// and produces identical results. The two kernels run on paired RNGs
// seeded identically; any divergence in draw order would desynchronize
// them and fail loudly.
func TestFrozenKernelsNFEquivalence(t *testing.T) {
	t.Parallel()
	for _, g := range referenceSearchGraphs(t) {
		f := g.Freeze()
		s := NewScratch(0)
		for seed := uint64(0); seed < 6; seed++ {
			src := int(seed) % g.N()
			ra, rb := xrand.New(seed), xrand.New(seed)
			want := referenceNormalizedFlood(g, src, 8, 2, ra)
			got, err := s.NormalizedFlood(f, src, 8, 2, rb)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "nf", want, got)
			if ra.Uint64() != rb.Uint64() {
				t.Fatal("nf consumed different RNG draw counts")
			}
		}
	}
}

// TestFrozenKernelsRWEquivalence: same for the random walk, including the
// post-run RNG state check.
func TestFrozenKernelsRWEquivalence(t *testing.T) {
	t.Parallel()
	for _, g := range referenceSearchGraphs(t) {
		f := g.Freeze()
		s := NewScratch(0)
		for seed := uint64(10); seed < 16; seed++ {
			src := int(seed) % g.N()
			ra, rb := xrand.New(seed), xrand.New(seed)
			want := referenceRandomWalk(g, src, 800, ra)
			got, err := s.RandomWalk(f, src, 800, rb)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "rw", want, got)
			if ra.Uint64() != rb.Uint64() {
				t.Fatal("rw consumed different RNG draw counts")
			}
		}
	}
}

// TestFrozenKernelsNFBudgetEquivalence composes the two RNG-consuming
// kernels, the paper's §V-B normalization.
func TestFrozenKernelsNFBudgetEquivalence(t *testing.T) {
	t.Parallel()
	for _, g := range referenceSearchGraphs(t) {
		f := g.Freeze()
		s := NewScratch(0)
		for seed := uint64(20); seed < 24; seed++ {
			src := int(seed) % g.N()
			ra, rb := xrand.New(seed), xrand.New(seed)
			wantNF := referenceNormalizedFlood(g, src, 6, 2, ra)
			wantRW := referenceRandomWalk(g, src, wantNF.Messages[6], ra)
			gotRW, gotNF, err := s.RandomWalkWithNFBudget(f, src, 6, 2, rb)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "nf-budget/nf", wantNF, gotNF)
			for tt := 0; tt <= 6; tt++ {
				b := wantNF.Messages[tt]
				if gotRW.Hits[tt] != wantRW.HitsAt(b) || gotRW.Messages[tt] != b {
					t.Fatalf("nf-budget/rw diverges at tau=%d", tt)
				}
			}
		}
	}
}

// --- Before/after benchmarks ------------------------------------------

// BenchmarkReferenceFlood is the pre-CSR flood for comparison against
// BenchmarkScratchFlood.
func BenchmarkReferenceFlood(b *testing.B) {
	g := scratchTestGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceFlood(g, i%g.N(), 8)
	}
}

// BenchmarkReferenceNormalizedFlood is the pre-CSR NF for comparison
// against BenchmarkScratchNormalizedFlood.
func BenchmarkReferenceNormalizedFlood(b *testing.B) {
	g := scratchTestGraph(b)
	rng := xrand.New(31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceNormalizedFlood(g, i%g.N(), 8, 2, rng)
	}
}

// BenchmarkReferenceRandomWalk is the pre-CSR walk for comparison against
// BenchmarkScratchRandomWalk below.
func BenchmarkReferenceRandomWalk(b *testing.B) {
	g := scratchTestGraph(b)
	rng := xrand.New(33)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceRandomWalk(g, i%g.N(), 2000, rng)
	}
}

// BenchmarkScratchRandomWalk is the CSR walk on a reused scratch.
func BenchmarkScratchRandomWalk(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(33)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RandomWalk(f, i%f.N(), 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
}
