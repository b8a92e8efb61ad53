package graph

import (
	"slices"
	"sync"
	"testing"

	"scalefree/internal/xrand"
)

// randomMultigraph builds a random graph that exercises every structural
// case Freeze must preserve: isolated nodes, self-loops, parallel edges,
// and arbitrary insertion order.
func randomMultigraph(rng *xrand.RNG) *Graph {
	n := rng.IntRange(1, 60)
	g := New(n)
	edges := rng.Intn(4 * n)
	for i := 0; i < edges; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if rng.Float64() < 0.05 {
			v = u // deliberate self-loop
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

// rowMultiplicity counts the copies of edge {u,v} in u's Graph row: a
// self-loop is two entries of that row.
func rowMultiplicity(g *Graph, u, v int) int {
	c := 0
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			c++
		}
	}
	if u == v {
		c /= 2
	}
	return c
}

// checkFrozenEquivalence asserts every read accessor of the Frozen agrees
// with the rows of the Graph it came from, bit for bit.
func checkFrozenEquivalence(t *testing.T, g *Graph, f *Frozen) {
	t.Helper()
	if f.N() != g.N() {
		t.Fatalf("N: frozen %d, graph %d", f.N(), g.N())
	}
	if f.M() != g.M() {
		t.Fatalf("M: frozen %d, graph %d", f.M(), g.M())
	}
	if f.TotalDegree() != g.TotalDegree() {
		t.Fatalf("TotalDegree: frozen %d, graph %d", f.TotalDegree(), g.TotalDegree())
	}
	minDeg, maxDeg := g.Degree(0), g.MaxDegree()
	gHist := make([]int, maxDeg+1)
	for u := 0; u < g.N(); u++ {
		minDeg = min(minDeg, g.Degree(u))
		gHist[g.Degree(u)]++
	}
	if f.MinDegree() != minDeg || f.MaxDegree() != maxDeg {
		t.Fatalf("min/max degree diverge: frozen %d/%d, graph %d/%d",
			f.MinDegree(), f.MaxDegree(), minDeg, maxDeg)
	}
	fSeq, fHist := f.DegreeSequence(), f.DegreeHistogram()
	if len(fSeq) != g.N() || !slices.Equal(fHist, gHist) {
		t.Fatalf("degree sequence length %d (graph %d) or histogram %v (graph %v) diverges",
			len(fSeq), g.N(), fHist, gHist)
	}
	for u := 0; u < g.N(); u++ {
		if f.Degree(u) != g.Degree(u) || fSeq[u] != g.Degree(u) {
			t.Fatalf("degree of %d: frozen %d (sequence %d), graph %d", u, f.Degree(u), fSeq[u], g.Degree(u))
		}
		ga, fa := g.Neighbors(u), f.Neighbors(u)
		if len(ga) != len(fa) {
			t.Fatalf("neighbor count of %d diverges", u)
		}
		for i := range ga {
			// Insertion order must be preserved exactly: it is what makes
			// frozen search traces bit-identical.
			if ga[i] != fa[i] {
				t.Fatalf("neighbor order of %d diverges at %d: frozen %d, graph %d", u, i, fa[i], ga[i])
			}
			if f.NeighborAt(u, i) != int(ga[i]) {
				t.Fatalf("NeighborAt(%d,%d) diverges", u, i)
			}
		}
		sa := f.SortedNeighbors(u)
		if len(sa) != len(ga) {
			t.Fatalf("sorted neighbor count of %d diverges", u)
		}
		for i := 1; i < len(sa); i++ {
			if sa[i-1] > sa[i] {
				t.Fatalf("SortedNeighbors(%d) not ascending at %d", u, i)
			}
		}
	}
	// Edge membership and multiplicity over every pair (n is small).
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if f.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d): frozen %v, graph %v", u, v, f.HasEdge(u, v), g.HasEdge(u, v))
			}
			if f.EdgeMultiplicity(u, v) != rowMultiplicity(g, u, v) {
				t.Fatalf("EdgeMultiplicity(%d,%d): frozen %d, graph row %d",
					u, v, f.EdgeMultiplicity(u, v), rowMultiplicity(g, u, v))
			}
		}
	}
}

// TestFrozenMatchesGraphProperty is the core equivalence property: across
// many random multigraphs, every Frozen accessor agrees with the Graph.
func TestFrozenMatchesGraphProperty(t *testing.T) {
	t.Parallel()
	rng := xrand.New(1)
	for trial := 0; trial < 200; trial++ {
		g := randomMultigraph(rng)
		checkFrozenEquivalence(t, g, g.Freeze())
	}
}

// randomNeighborExcluding is the reference draw for
// Frozen.RandomNeighborExcluding, over a Graph row: one Intn over the
// entries other than excl, then the pick-th of them in row order.
func randomNeighborExcluding(g *Graph, u, excl int, rng *xrand.RNG) int {
	var eligible []int32
	for _, v := range g.Neighbors(u) {
		if int(v) != excl {
			eligible = append(eligible, v)
		}
	}
	if len(eligible) == 0 {
		return -1
	}
	return int(eligible[rng.Intn(len(eligible))])
}

// TestFrozenRandomNeighborDrawEquivalence pins the RNG contract: the
// frozen random-neighbor picks consume the same draws and return the same
// nodes as draws over the Graph's rows, across random graphs and many
// draws.
func TestFrozenRandomNeighborDrawEquivalence(t *testing.T) {
	t.Parallel()
	rng := xrand.New(2)
	for trial := 0; trial < 100; trial++ {
		g := randomMultigraph(rng)
		f := g.Freeze()
		seed := rng.Uint64()
		ra, rb := xrand.New(seed), xrand.New(seed)
		for i := 0; i < 200; i++ {
			u := rng.Intn(g.N())
			excl := rng.Intn(g.N()+1) - 1 // sometimes -1 (no exclusion)
			if i%2 == 0 {
				if got, want := f.RandomNeighbor(u, rb), g.RandomNeighbor(u, ra); got != want {
					t.Fatalf("RandomNeighbor(%d): frozen %d, graph %d", u, got, want)
				}
			} else {
				got := f.RandomNeighborExcluding(u, excl, rb)
				want := randomNeighborExcluding(g, u, excl, ra)
				if got != want {
					t.Fatalf("RandomNeighborExcluding(%d,%d): frozen %d, graph %d", u, excl, got, want)
				}
			}
		}
	}
}

// TestFrozenBFSMatchesGraph pins BFS's invalid-source contract. Its
// distances are pinned by TestReadPathDigests and TestBFSEdgeConsistencyProperty.
func TestFrozenBFSMatchesGraph(t *testing.T) {
	t.Parallel()
	g := New(3)
	if f := g.Freeze(); f.BFS(-1) != nil || f.BFS(3) != nil {
		t.Fatal("BFS with invalid source should return nil")
	}
}

// TestFrozenImmutableAfterGraphMutation pins the snapshot contract: the
// Frozen shares no storage with the Graph, so later mutations do not leak
// into it.
func TestFrozenImmutableAfterGraphMutation(t *testing.T) {
	t.Parallel()
	g := New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	f := g.Freeze()
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(1, 2)
	if f.M() != 3 || f.Degree(0) != 1 || !f.HasEdge(1, 2) || f.HasEdge(0, 3) {
		t.Fatal("frozen snapshot changed after graph mutation")
	}
}

// TestFrozenEmptyAndIsolated covers degenerate shapes.
func TestFrozenEmptyAndIsolated(t *testing.T) {
	t.Parallel()
	f := New(0).Freeze()
	if f.N() != 0 || f.M() != 0 || f.TotalDegree() != 0 || f.MinDegree() != 0 || f.MaxDegree() != 0 {
		t.Fatal("empty frozen graph misreports")
	}
	f = New(5).Freeze()
	if f.N() != 5 || f.Degree(2) != 0 || f.HasEdge(0, 1) || f.RandomNeighbor(3, xrand.New(1)) != -1 {
		t.Fatal("isolated frozen nodes misreport")
	}
	if f.RandomNeighborExcluding(3, -1, xrand.New(1)) != -1 {
		t.Fatal("RandomNeighborExcluding on isolated node should be -1")
	}
	if f.HasEdge(-1, 0) || f.HasEdge(0, 99) || f.EdgeMultiplicity(-1, 0) != 0 {
		t.Fatal("out-of-range HasEdge/EdgeMultiplicity should be false/0")
	}
}

// FuzzFrozenEquivalence drives Freeze with fuzzer-chosen edge scripts: the
// bytes encode AddEdge/RemoveEdge operations, and the resulting Frozen
// must agree with the Graph on every accessor.
func FuzzFrozenEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x13, 0x24, 0x11})
	f.Add([]byte{0xff, 0x00, 0x00, 0x80, 0x42, 0x42})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 16
		g := New(n)
		for i := 0; i+1 < len(script); i += 2 {
			u := int(script[i]) % n
			v := int(script[i+1]) % n
			if script[i]&0x80 != 0 {
				g.RemoveEdge(u, v)
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		fz := g.Freeze()
		if fz.N() != g.N() || fz.M() != g.M() || fz.TotalDegree() != g.TotalDegree() {
			t.Fatalf("size accessors diverge: N %d/%d M %d/%d total %d/%d",
				fz.N(), g.N(), fz.M(), g.M(), fz.TotalDegree(), g.TotalDegree())
		}
		for u := 0; u < n; u++ {
			ga, fa := g.Neighbors(u), fz.Neighbors(u)
			if len(ga) != len(fa) {
				t.Fatalf("neighbor count of %d diverges", u)
			}
			for i := range ga {
				if ga[i] != fa[i] {
					t.Fatalf("neighbor order of %d diverges", u)
				}
			}
			for v := 0; v < n; v++ {
				if fz.HasEdge(u, v) != g.HasEdge(u, v) {
					t.Fatalf("HasEdge(%d,%d) diverges", u, v)
				}
				if fz.EdgeMultiplicity(u, v) != rowMultiplicity(g, u, v) {
					t.Fatalf("EdgeMultiplicity(%d,%d) diverges", u, v)
				}
			}
		}
	})
}

// --- Benchmarks --------------------------------------------------------

// TestFrozenConcurrentMembership hammers the lazily-built sorted ranges
// from many goroutines at once: the sync.Once materialization must be
// safe for concurrent first readers (run under -race in CI).
func TestFrozenConcurrentMembership(t *testing.T) {
	t.Parallel()
	g := randomMultigraph(xrand.New(9))
	f := g.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(uint64(w))
			for i := 0; i < 500; i++ {
				u, v := rng.Intn(f.N()), rng.Intn(f.N())
				if f.HasEdge(u, v) != g.HasEdge(u, v) {
					t.Errorf("concurrent HasEdge(%d,%d) diverges", u, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
