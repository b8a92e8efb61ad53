package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// splitMix64 is a tiny deterministic generator for test edge streams. The
// graph package cannot import xrand (dependency direction), and these
// tests only need reproducible chaos, not statistical quality.
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomEdgeStream draws `edges` node pairs on n nodes with deliberately
// many collisions: small n relative to edge count yields self-loops and
// parallel edges, the cases simplification must handle.
func randomEdgeStream(seed uint64, n, edges int) [][2]int32 {
	rng := splitMix64(seed)
	out := make([][2]int32, edges)
	for i := range out {
		out[i] = [2]int32{int32(rng.next() % uint64(n)), int32(rng.next() % uint64(n))}
	}
	return out
}

// graphFromStream replays the stream through the mutable Graph.
func graphFromStream(t testing.TB, n int, stream [][2]int32) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range stream {
		if err := g.AddEdge(int(e[0]), int(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// builderFromStream replays the stream into a CSRBuilder, split into
// `chunkCount` contiguous chunks (chunk order = stream order).
func builderFromStream(n int, stream [][2]int32, chunkCount int, arena *CSRArena) *CSRBuilder {
	if chunkCount < 1 {
		chunkCount = 1
	}
	b := NewCSRBuilder(n, chunkCount, arena)
	per := (len(stream) + chunkCount - 1) / chunkCount
	if per < 1 {
		per = 1
	}
	for i, e := range stream {
		b.Edge(i/per, e[0], e[1])
	}
	return b
}

// flatPairs lays the stream out as one pair array, SimplifyPairs' input.
func flatPairs(stream [][2]int32) []int32 {
	pairs := make([]int32, 0, 2*len(stream))
	for _, e := range stream {
		pairs = append(pairs, e[0], e[1])
	}
	return pairs
}

// expectIdentical asserts two Frozens match byte for byte: offsets,
// insertion-order neighbors, sorted ranges, and edge count. Both sides'
// SortedNeighbors — built on this first call — are held against want's
// rows sorted by comparison, a reference that shares nothing with the
// counting transpose.
func expectIdentical(t *testing.T, label string, want, got *Frozen) {
	t.Helper()
	if !reflect.DeepEqual(want.offsets, got.offsets) {
		t.Fatalf("%s: offsets diverged", label)
	}
	if !reflect.DeepEqual(want.neighbors, got.neighbors) {
		t.Fatalf("%s: neighbor order diverged", label)
	}
	for u := 0; u < want.N(); u++ {
		ref := slices.Clone(want.Neighbors(u))
		slices.Sort(ref)
		if !slices.Equal(ref, want.SortedNeighbors(u)) || !slices.Equal(ref, got.SortedNeighbors(u)) {
			t.Fatalf("%s: sorted range of node %d diverged", label, u)
		}
	}
	if want.M() != got.M() {
		t.Fatalf("%s: edges %d vs %d", label, want.M(), got.M())
	}
}

// TestCSRBuilderMatchesFreeze pins the multigraph contract: Finalize on a
// chunked stream is byte-identical to Graph.AddEdge in stream order plus
// FreezePar, for every chunking, worker count, and arena reuse state.
func TestCSRBuilderMatchesFreeze(t *testing.T) {
	t.Parallel()
	arena := NewCSRArena()
	for _, tc := range []struct{ n, edges int }{
		{1, 5}, {2, 0}, {7, 40}, {50, 400}, {300, 900}, {1000, 300},
	} {
		stream := randomEdgeStream(uint64(tc.n*31+tc.edges), tc.n, tc.edges)
		want := graphFromStream(t, tc.n, stream).FreezePar(1)
		for _, chunks := range []int{1, 3, 16} {
			for _, workers := range []int{1, 4} {
				got := builderFromStream(tc.n, stream, chunks, nil).Finalize(workers, true)
				expectIdentical(t, "fresh", want, got)
				got = builderFromStream(tc.n, stream, chunks, arena).Finalize(workers, true)
				expectIdentical(t, "arena", want, got)
			}
		}
		// Lazy variant must still answer membership identically.
		lazy := builderFromStream(tc.n, stream, 4, arena).Finalize(2, false)
		expectIdentical(t, "lazy", want, lazy)
	}
}

// TestCSRBuilderSimplifiedMatchesGraph pins the cleanup contract:
// SimplifyPairs is byte-identical to Graph+Simplify+FreezePar on the
// same stream — surviving neighbor order included, which exercises
// Simplify's swap-with-last removal — and reports the same deletion
// counts, for every worker count, which is also the number of pieces the
// stream is scattered in. It does not build the result's membership
// ranges: they stay unbuilt until first use. Besides random streams it
// runs replayCases, the orders that stress the row replay, with workers
// 1 to 4 and 7.
func TestCSRBuilderSimplifiedMatchesGraph(t *testing.T) {
	t.Parallel()
	arena := NewCSRArena()
	check := func(label string, n int, stream [][2]int32, workerCounts []int) {
		t.Helper()
		g := graphFromStream(t, n, stream)
		wantLoops, wantMulti := g.Simplify()
		want := g.FreezePar(1)
		pairs := flatPairs(stream)
		for _, workers := range workerCounts {
			got, loops, multi := SimplifyPairs(n, pairs, workers, arena)
			if loops != wantLoops || multi != wantMulti {
				t.Fatalf("%s W=%d: deletions (%d,%d), want (%d,%d)", label, workers, loops, multi, wantLoops, wantMulti)
			}
			if got.sorted != nil {
				t.Fatalf("%s W=%d: SimplifyPairs built the membership ranges", label, workers)
			}
			expectIdentical(t, fmt.Sprintf("%s W=%d", label, workers), want, got)
		}
	}
	for _, tc := range []struct{ n, edges int }{
		{1, 6}, {2, 9}, {5, 50}, {40, 500}, {256, 2048}, {2000, 1500},
	} {
		stream := randomEdgeStream(uint64(tc.n)*977+uint64(tc.edges), tc.n, tc.edges)
		check(fmt.Sprintf("random n=%d", tc.n), tc.n, stream, []int{1, 3, 5, 32})
	}
	for _, tc := range replayCases() {
		check(tc.name, tc.n, tc.stream, []int{1, 2, 3, 4, 7})
	}
}

// replayCase is one hand-built stream for the simplify replay.
type replayCase struct {
	name   string
	n      int
	stream [][2]int32
}

// replayCases are the streams whose rows stress the row-by-row replay of
// Graph.Simplify: the entry swap-with-last moves into a hole is a pending
// duplicate, of the deleted value itself or of a larger one still to
// come; a value with three or more copies beside two or more self-loops;
// hub rows whose duplicated neighbours arrive in descending order; and a
// row whose last value fills every earlier hole.
// Shuffled copies of the small rows vary where the copies sit. The cases
// with n <= 64 are also the FuzzCSRBuilderEquivalence seed corpus.
func replayCases() []replayCase {
	edges := func(es ...int32) [][2]int32 {
		out := make([][2]int32, 0, len(es)/2)
		for i := 0; i+1 < len(es); i += 2 {
			out = append(out, [2]int32{es[i], es[i+1]})
		}
		return out
	}
	// Row 0 is [5 7 5 5]: both deletions of 5 are filled by 5's own
	// last copy.
	sameTail := edges(0, 5, 0, 7, 5, 0, 0, 5)
	// Row 1 is [4 6 4 6 6 4 6]: 4's first hole takes a 6, whose largest
	// position becomes its smallest; row 2 is [9 3 9 3 9], where the 9
	// moved into 3's hole lands between two 9s.
	largerTail := edges(1, 4, 1, 6, 1, 4, 1, 6, 1, 6, 1, 4, 1, 6,
		2, 9, 3, 2, 2, 9, 2, 3, 9, 2)
	// Row 3 holds three self-loops, three copies of 1 below 3 and three
	// copies of 5 above it.
	loopsAndTriples := edges(3, 3, 3, 5, 3, 3, 5, 3, 3, 3, 3, 5, 3, 1, 1, 3, 3, 1)
	cases := []replayCase{
		{"same-value tail", 8, sameTail},
		{"larger pending tail", 10, largerTail},
		{"triples beside self-loops", 6, loopsAndTriples},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, c := range cases[:3] {
			stream := slices.Clone(c.stream)
			rng := splitMix64(seed)
			for i := len(stream) - 1; i > 0; i-- {
				j := int(rng.next() % uint64(i+1))
				stream[i], stream[j] = stream[j], stream[i]
			}
			cases = append(cases, replayCase{fmt.Sprintf("%s, shuffle %d", c.name, seed), c.n, stream})
		}
	}
	// A hub with 63 neighbours, 16 copies each, every round descending
	// and every other round reversed in orientation.
	var hub64 [][2]int32
	for round := 0; round < 16; round++ {
		for v := int32(63); v >= 1; v-- {
			e := [2]int32{0, v}
			if round%2 == 1 {
				e = [2]int32{v, 0}
			}
			hub64 = append(hub64, e)
		}
	}
	cases = append(cases, replayCase{"hub of 63 x16, descending", 64, hub64})
	// Row 0 holds 31 values twice each, then 32 copies of 63: every
	// deletion of a small value pulls a 63 from the row's end into its
	// hole, so 63's positions are out of order by its turn.
	var parked [][2]int32
	for v := int32(1); v <= 31; v++ {
		parked = append(parked, [2]int32{0, v}, [2]int32{v, 0})
	}
	for c := 0; c < 32; c++ {
		parked = append(parked, [2]int32{0, 63})
	}
	cases = append(cases, replayCase{"value parked behind duplicates", 64, parked})
	// A hub with 10^3 neighbours, two copies each, both rounds descending.
	var hub1000 [][2]int32
	for round := 0; round < 2; round++ {
		for v := int32(1000); v >= 1; v-- {
			hub1000 = append(hub1000, [2]int32{0, v})
		}
	}
	return append(cases, replayCase{"hub of 1000 x2, descending", 1001, hub1000})
}

// TestSegmentChunksEmptyStream pins the empty-stream clamp: an edgeless
// builder with many chunks must collapse to a single segment, not one
// segment (and one n-sized count array) per chunk.
func TestSegmentChunksEmptyStream(t *testing.T) {
	t.Parallel()
	if segs := segmentChunks(make([][]int32, 100), 4); len(segs) != 1 {
		t.Fatalf("empty stream split into %d segments, want 1", len(segs))
	}
	f := NewCSRBuilder(50, 100, nil).Finalize(4, true)
	if f.N() != 50 || f.M() != 0 || f.TotalDegree() != 0 {
		t.Fatalf("edgeless finalize wrong: N=%d M=%d D=%d", f.N(), f.M(), f.TotalDegree())
	}
}

// TestCSRArenaReuseIsInvisible pins the pooling contract: a long sequence
// of different-shaped builds through one arena yields the same snapshots
// as fresh allocation every time.
func TestCSRArenaReuseIsInvisible(t *testing.T) {
	t.Parallel()
	arena := NewCSRArena()
	for round := 0; round < 8; round++ {
		n := 10 + round*37
		stream := randomEdgeStream(uint64(round), n, 60+round*91)
		fresh, fl, fm := SimplifyPairs(n, flatPairs(stream), 2, nil)
		pooled, pl, pm := SimplifyPairs(n, flatPairs(stream), 2, arena)
		if fl != pl || fm != pm {
			t.Fatalf("round %d: deletion counts diverged under arena reuse", round)
		}
		expectIdentical(t, "arena-round", fresh, pooled)
	}
}

// TestCSRArenaRecycleRefillsSnapshot pins the retirement contract: each
// freeze on an arena refills the snapshot the previous round retired into
// it (Recycle) when its arrays fit — through Freeze, Finalize and
// SimplifyPairs alike, on shapes that grow and shrink — and the
// result equals a fresh freeze, membership ranges included, even when the
// retired snapshot had built its own by a HasEdge. A refilled snapshot
// starts with a fresh header: no sorted ranges carry over, and the
// retired header is emptied. A retired snapshot too small for both arrays
// is not used up and comes back from Reclaim.
func TestCSRArenaRecycleRefillsSnapshot(t *testing.T) {
	t.Parallel()
	arena := NewCSRArena()
	var prev *Frozen
	for round, tc := range []struct{ n, edges int }{
		{300, 900}, {120, 200}, {40, 500}, {900, 2500}, {900, 2400}, {5, 9}, {2000, 1500}, {600, 700}, {500, 3000}, {1, 6},
	} {
		stream := randomEdgeStream(uint64(round)*131+7, tc.n, tc.edges)
		g := graphFromStream(t, tc.n, stream)
		var want, got *Frozen
		switch round % 3 {
		case 0:
			want = g.FreezePar(1)
		case 1:
			want = builderFromStream(tc.n, stream, 1, nil).Finalize(1, false)
		case 2:
			g.Simplify()
			want = g.FreezePar(1)
		}
		total := want.TotalDegree()
		var oldOffsets, oldNeighbors []int32
		if prev != nil {
			if round%2 == 0 && prev.N() > 1 {
				prev.HasEdge(0, 1) // the retired snapshot built its sorted ranges
			}
			oldOffsets, oldNeighbors = prev.offsets, prev.neighbors
		}
		arena.Recycle(prev)
		switch round % 3 {
		case 0:
			got = arena.Freeze(graphFromStream(t, tc.n, stream), 2)
		case 1:
			got = builderFromStream(tc.n, stream, 3, arena).Finalize(2, false)
		case 2:
			got, _, _ = SimplifyPairs(tc.n, flatPairs(stream), 2, arena)
		}
		if got.sorted != nil {
			t.Fatalf("round %d: a refilled snapshot carried membership ranges", round)
		}
		fitsOffsets, fitsNeighbors := cap(oldOffsets) >= tc.n+1, cap(oldNeighbors) >= total
		if fitsOffsets && &got.offsets[0] != &oldOffsets[0] || fitsNeighbors && total > 0 && &got.neighbors[0] != &oldNeighbors[0] {
			t.Fatalf("round %d: the freeze allocated arrays the retired snapshot had room for", round)
		}
		reclaimed := arena.Reclaim()
		switch {
		case prev == nil:
		case fitsOffsets || fitsNeighbors:
			if reclaimed != nil || prev.offsets != nil || prev.neighbors != nil {
				t.Fatalf("round %d: a used-up snapshot was not emptied and taken", round)
			}
		case reclaimed != prev:
			t.Fatalf("round %d: an unused retired snapshot did not come back from Reclaim", round)
		}
		expectIdentical(t, "refilled", want, got)
		for u := 0; u < tc.n; u++ {
			for v := u; v < tc.n && v < u+8; v++ {
				if got.HasEdge(u, v) != want.HasEdge(u, v) {
					t.Fatalf("round %d: HasEdge(%d, %d) = %v on the refilled snapshot", round, u, v, got.HasEdge(u, v))
				}
			}
		}
		prev = got
	}
}
