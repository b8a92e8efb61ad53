package graph

import (
	"testing"
	"testing/quick"

	"scalefree/internal/xrand"
)

func mustAdd(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// path returns a path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(t, g, i, i+1)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	t.Parallel()
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("empty graph should be connected by convention")
	}
	if g.MaxDegree() != 0 || g.Freeze().MinDegree() != 0 {
		t.Fatal("empty graph degrees should be 0")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	t.Parallel()
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge 0-1 missing or not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge 0-2")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if g.TotalDegree() != 4 {
		t.Fatalf("TotalDegree = %d, want 4", g.TotalDegree())
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	t.Parallel()
	g := New(2)
	if err := g.AddEdge(0, 2); err == nil {
		t.Fatal("AddEdge(0,2) on 2-node graph should error")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("AddEdge(-1,0) should error")
	}
}

func TestSelfLoopDegreeConvention(t *testing.T) {
	t.Parallel()
	g := New(1)
	mustAdd(t, g, 0, 0)
	if g.Degree(0) != 2 {
		t.Fatalf("self-loop degree = %d, want 2", g.Degree(0))
	}
	if g.M() != 1 {
		t.Fatalf("self-loop M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 0) {
		t.Fatal("HasEdge(0,0) false after adding self-loop")
	}
}

func TestMultiEdges(t *testing.T) {
	t.Parallel()
	g := New(2)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 0)
	mustAdd(t, g, 0, 1)
	if rowMultiplicity(g, 0, 1) != 3 {
		t.Fatalf("multiplicity = %d, want 3", rowMultiplicity(g, 0, 1))
	}
	if g.M() != 3 || g.Degree(0) != 3 || g.Degree(1) != 3 {
		t.Fatalf("M=%d deg0=%d deg1=%d", g.M(), g.Degree(0), g.Degree(1))
	}
}

// TestTotalDegreeCountsLoopsAndCopies pins TotalDegree = 2·M against the
// row sum it replaced, where the two could differ: self-loops (one edge,
// two entries of one row), parallel copies, and after removals.
func TestTotalDegreeCountsLoopsAndCopies(t *testing.T) {
	t.Parallel()
	g := New(4)
	rowSum := func() int {
		total := 0
		for u := 0; u < g.N(); u++ {
			total += len(g.Neighbors(u))
		}
		return total
	}
	check := func(step string, want int) {
		t.Helper()
		if got := g.TotalDegree(); got != want || got != rowSum() || got != 2*g.M() {
			t.Fatalf("%s: TotalDegree=%d rowSum=%d 2M=%d, want %d", step, got, rowSum(), 2*g.M(), want)
		}
	}
	check("empty", 0)
	mustAdd(t, g, 1, 1)
	mustAdd(t, g, 1, 1)
	check("two self-loops", 4)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 2, 0)
	mustAdd(t, g, 2, 3)
	check("plus a parallel pair and an edge", 10)
	g.RemoveEdge(1, 1)
	g.RemoveEdge(3, 0) // absent: must not move the count
	check("after removals", 8)
	g.Simplify()
	check("after Simplify", 4)
}

func TestRemoveEdge(t *testing.T) {
	t.Parallel()
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) returned false")
	}
	if rowMultiplicity(g, 0, 1) != 1 || g.M() != 2 {
		t.Fatalf("after removal: mult=%d M=%d", rowMultiplicity(g, 0, 1), g.M())
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge failed")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge 0-1 still present")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge on absent edge returned true")
	}
	if g.Degree(0) != 0 || g.Degree(1) != 1 {
		t.Fatalf("degrees after removal: %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestRemoveSelfLoop(t *testing.T) {
	t.Parallel()
	g := New(1)
	mustAdd(t, g, 0, 0)
	if !g.RemoveEdge(0, 0) {
		t.Fatal("RemoveEdge self-loop failed")
	}
	if g.Degree(0) != 0 || g.M() != 0 {
		t.Fatalf("after self-loop removal: deg=%d M=%d", g.Degree(0), g.M())
	}
}

func TestSimplify(t *testing.T) {
	t.Parallel()
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 1)
	mustAdd(t, g, 2, 2)
	mustAdd(t, g, 2, 2)
	mustAdd(t, g, 1, 2)
	loops, multi := g.Simplify()
	if loops != 3 {
		t.Fatalf("removed %d self-loops, want 3", loops)
	}
	if multi != 2 {
		t.Fatalf("removed %d multi-edges, want 2", multi)
	}
	if g.M() != 2 {
		t.Fatalf("M after simplify = %d, want 2", g.M())
	}
	if rowMultiplicity(g, 0, 1) != 1 || !g.HasEdge(1, 2) {
		t.Fatal("wrong surviving edges")
	}
	for u := 0; u < 3; u++ {
		if rowMultiplicity(g, u, u) != 0 {
			t.Fatalf("self-loop survived at %d", u)
		}
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	t.Parallel()
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 2, 3)
	loops, multi := g.Simplify()
	if loops != 0 || multi != 0 {
		t.Fatalf("simplify on simple graph removed %d loops %d multi", loops, multi)
	}
	if g.M() != 2 {
		t.Fatalf("M changed to %d", g.M())
	}
}

func TestAddNode(t *testing.T) {
	t.Parallel()
	g := New(1)
	id := g.AddNode()
	if id != 1 || g.N() != 2 {
		t.Fatalf("AddNode: id=%d N=%d", id, g.N())
	}
	mustAdd(t, g, 0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("edge to added node missing")
	}
}

func TestBFSPath(t *testing.T) {
	t.Parallel()
	g := path(t, 5)
	dist := g.Freeze().BFS(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	t.Parallel()
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 2, 3)
	dist := g.Freeze().BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable distances: %v", dist)
	}
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d", dist[1])
	}
}

func TestBFSInvalidSource(t *testing.T) {
	t.Parallel()
	g := New(2)
	if got := g.Freeze().BFS(5); got != nil {
		t.Fatalf("BFS(5) = %v, want nil", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	t.Parallel()
	g := New(7)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 3, 4)
	// 5, 6 isolated
	comps := g.Freeze().ConnectedComponents()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("largest component size %d, want 3", len(comps[0]))
	}
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != 7 {
		t.Fatalf("components cover %d nodes, want 7", total)
	}
}

func TestGiantComponent(t *testing.T) {
	t.Parallel()
	g := New(5)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	gc := g.Freeze().GiantComponent()
	if len(gc) != 3 {
		t.Fatalf("giant component size %d, want 3", len(gc))
	}
	if New(0).Freeze().GiantComponent() != nil {
		t.Fatal("empty graph giant component should be nil")
	}
}

func TestIsConnected(t *testing.T) {
	t.Parallel()
	g := path(t, 4)
	if !g.Freeze().IsConnected() {
		t.Fatal("path graph should be connected")
	}
	g.AddNode()
	if g.Freeze().IsConnected() {
		t.Fatal("graph with isolated node should not be connected")
	}
}

func TestSamplePathStatsExact(t *testing.T) {
	t.Parallel()
	g := path(t, 4) // distances: 1+2+3 + 1+1+2 + ... mean over ordered pairs
	st := g.Freeze().SamplePathStats(4, xrand.New(1))
	// All-pairs ordered distances: sum = 2*(1*3 + 2*2 + 3*1) = 20, pairs = 12.
	if st.Pairs != 12 {
		t.Fatalf("pairs = %d, want 12", st.Pairs)
	}
	if want := 20.0 / 12.0; st.MeanDistance != want {
		t.Fatalf("mean = %v, want %v", st.MeanDistance, want)
	}
	if st.MaxDistance != 3 {
		t.Fatalf("max = %d, want 3", st.MaxDistance)
	}
	if st.UnreachablePairs != 0 {
		t.Fatalf("unreachable = %d", st.UnreachablePairs)
	}
}

func TestSamplePathStatsUnreachable(t *testing.T) {
	t.Parallel()
	g := New(3)
	mustAdd(t, g, 0, 1)
	st := g.Freeze().SamplePathStats(3, xrand.New(1))
	if st.UnreachablePairs != 4 { // (0,2),(1,2),(2,0),(2,1)
		t.Fatalf("unreachable = %d, want 4", st.UnreachablePairs)
	}
}

func TestEstimateDiameter(t *testing.T) {
	t.Parallel()
	g := path(t, 10)
	if d := g.Freeze().EstimateDiameter(3, xrand.New(1)); d != 9 {
		t.Fatalf("diameter = %d, want 9", d)
	}
	if d := New(0).Freeze().EstimateDiameter(3, xrand.New(1)); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
}

func TestEccentricity(t *testing.T) {
	t.Parallel()
	g := path(t, 5)
	f := g.Freeze()
	if e := f.Eccentricity(0); e != 4 {
		t.Fatalf("ecc(0) = %d, want 4", e)
	}
	if e := f.Eccentricity(2); e != 2 {
		t.Fatalf("ecc(2) = %d, want 2", e)
	}
}

func TestRandomNeighbor(t *testing.T) {
	t.Parallel()
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 0, 3)
	rng := xrand.New(1)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := g.RandomNeighbor(0, rng)
		if v < 1 || v > 3 {
			t.Fatalf("RandomNeighbor = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("saw only %d distinct neighbors in 200 draws", len(seen))
	}
	if g.RandomNeighbor(1, rng) != 0 {
		t.Fatal("RandomNeighbor of degree-1 node should be its only neighbor")
	}
	iso := New(1)
	if iso.RandomNeighbor(0, rng) != -1 {
		t.Fatal("RandomNeighbor of isolated node should be -1")
	}
}

func TestRandomNeighborExcluding(t *testing.T) {
	t.Parallel()
	g := New(3)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 2)
	f := g.Freeze()
	rng := xrand.New(1)
	for i := 0; i < 100; i++ {
		if v := f.RandomNeighborExcluding(0, 1, rng); v != 2 {
			t.Fatalf("excluding 1 gave %d", v)
		}
	}
	// Degree-1 node excluding its only neighbor: dead end.
	if v := f.RandomNeighborExcluding(1, 0, rng); v != -1 {
		t.Fatalf("dead end gave %d, want -1", v)
	}
}

func TestDegreeHistogram(t *testing.T) {
	t.Parallel()
	g := New(4)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 0, 3)
	h := g.Freeze().DegreeHistogram()
	// degrees: node0=3, others=1
	if h[1] != 3 || h[3] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestInducedSubgraph(t *testing.T) {
	t.Parallel()
	g := New(5)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	mustAdd(t, g, 3, 4)
	f := g.Freeze()
	sub, orig := f.InducedFrozen([]int{1, 2, 3})
	if sub.sorted != nil {
		t.Fatal("InducedFrozen built the membership ranges")
	}
	if sub.N() != 3 {
		t.Fatalf("sub N = %d", sub.N())
	}
	if sub.M() != 2 {
		t.Fatalf("sub M = %d, want 2 (1-2 and 2-3)", sub.M())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("subgraph edges wrong")
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 3 {
		t.Fatalf("orig mapping %v", orig)
	}
	if empty, orig := f.InducedFrozen(nil); empty.N() != 0 || empty.M() != 0 || len(orig) != 0 {
		t.Fatalf("empty node set: N=%d M=%d orig %v", empty.N(), empty.M(), orig)
	}
}

func TestInducedSubgraphSelfLoop(t *testing.T) {
	t.Parallel()
	g := New(3)
	mustAdd(t, g, 1, 1)
	mustAdd(t, g, 1, 2)
	sub, _ := g.Freeze().InducedFrozen([]int{1, 2})
	if sub.EdgeMultiplicity(0, 0) != 1 {
		t.Fatalf("self-loop multiplicity = %d, want 1", sub.EdgeMultiplicity(0, 0))
	}
	if sub.Degree(0) != 3 { // self-loop (2) + edge to node 2 (1)
		t.Fatalf("degree = %d, want 3", sub.Degree(0))
	}
	if sub.M() != 2 {
		t.Fatalf("M = %d, want 2", sub.M())
	}
}

// Property: for arbitrary edge insertions, total degree is always 2*M and
// the degree histogram sums to N.
func TestDegreeInvariantsProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, edgesRaw uint8) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(1, 40)
		g := New(n)
		for i := 0; i < int(edgesRaw); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if g.AddEdge(u, v) != nil {
				return false
			}
		}
		if g.TotalDegree() != 2*g.M() {
			return false
		}
		sum := 0
		for _, c := range g.Freeze().DegreeHistogram() {
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Simplify always yields a simple graph (no loops, multiplicity <= 1).
func TestSimplifyProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, edgesRaw uint8) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(1, 30)
		g := New(n)
		for i := 0; i < int(edgesRaw); i++ {
			if g.AddEdge(rng.Intn(n), rng.Intn(n)) != nil {
				return false
			}
		}
		g.Simplify()
		for u := 0; u < n; u++ {
			if rowMultiplicity(g, u, u) != 0 {
				return false
			}
			for v := u + 1; v < n; v++ {
				if rowMultiplicity(g, u, v) > 1 {
					return false
				}
			}
		}
		return g.TotalDegree() == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges:
// |dist(u) - dist(v)| <= 1 for every edge {u,v} in the same component.
func TestBFSEdgeConsistencyProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.IntRange(2, 50)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				if g.AddEdge(u, v) != nil {
					return false
				}
			}
		}
		dist := g.Freeze().BFS(0)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				du, dv := dist[u], dist[v]
				if (du < 0) != (dv < 0) {
					return false // one reachable, the other not, yet adjacent
				}
				if du >= 0 && dv >= 0 && du-dv > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEdge(b *testing.B) {
	g := New(b.N + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AddEdge(i, i+1)
	}
}

func BenchmarkBFS(b *testing.B) {
	rng := xrand.New(1)
	const n = 10000
	g := New(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(i, rng.Intn(i))
	}
	f := g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.BFS(i % n)
	}
}
