package metrics

import (
	"math"
	"sort"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// betweenness runs one Brandes pass over f's rows, on fresh state: exact
// for pivots <= 0 or >= N, else sampled from pivots sources.
func betweenness(f *graph.Frozen, pivots int, rng *xrand.RNG) (bc, se []float64) {
	r := newRemoval(f, true)
	return r.bt.run(r.rows, pivots, rng)
}

func mustAdd(t testing.TB, g *graph.Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// randomConnectedGraph grows a connected scale-free-ish test graph: each
// new node attaches to a random earlier node plus occasionally a second.
func randomConnectedGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	rng := xrand.New(seed)
	g := graph.New(n)
	for u := 1; u < n; u++ {
		mustAdd(t, g, u, rng.Intn(u))
		if u > 2 {
			v := rng.Intn(u)
			if v != u && !g.HasEdge(u, v) {
				mustAdd(t, g, u, v)
			}
		}
	}
	return g
}

func TestBetweennessPath(t *testing.T) {
	t.Parallel()
	// Path 0-1-2-3-4: bc(2) covers pairs {0,1}x{3,4} plus {0,3},{0,4}...
	// Exact values for a path of 5: bc(0)=0, bc(1)=3, bc(2)=4, symmetric.
	bc, _ := betweenness(pathG(t, 5).Freeze(), 0, nil)
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Fatalf("bc = %v, want %v", bc, want)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	t.Parallel()
	// Star on n nodes: hub carries all C(n-1, 2) pairs; leaves carry 0.
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		mustAdd(t, g, 0, v)
	}
	bc, _ := betweenness(g.Freeze(), 0, nil)
	if math.Abs(bc[0]-10) > 1e-9 { // C(5,2)
		t.Fatalf("hub bc %v, want 10", bc[0])
	}
	for v := 1; v < 6; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf bc %v", bc)
		}
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	t.Parallel()
	// Symmetric graph: all nodes equal.
	g := graph.New(6)
	for u := 0; u < 6; u++ {
		mustAdd(t, g, u, (u+1)%6)
	}
	bc, _ := betweenness(g.Freeze(), 0, nil)
	for v := 1; v < 6; v++ {
		if math.Abs(bc[v]-bc[0]) > 1e-9 {
			t.Fatalf("cycle bc not uniform: %v", bc)
		}
	}
}

func TestBetweennessEmpty(t *testing.T) {
	t.Parallel()
	if bc, _ := betweenness(graph.New(0).Freeze(), 0, nil); len(bc) != 0 {
		t.Fatalf("empty bc %v", bc)
	}
	bc, _ := betweenness(graph.New(3).Freeze(), 0, nil)
	for _, v := range bc {
		if v != 0 {
			t.Fatalf("edgeless bc %v", bc)
		}
	}
}

func TestBetweennessSampledApproximatesExact(t *testing.T) {
	t.Parallel()
	// On a moderately sized random graph, the pivot estimator should
	// rank the top node correctly and approximate magnitudes.
	f := randomConnectedGraph(t, 300, 5).Freeze()
	exact, _ := betweenness(f, 0, nil)
	approx, _ := betweenness(f, 100, xrand.New(7))
	// Compare at the exact top-centrality node.
	top := 0
	for v := range exact {
		if exact[v] > exact[top] {
			top = v
		}
	}
	if exact[top] == 0 {
		t.Fatal("degenerate test graph")
	}
	ratio := approx[top] / exact[top]
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("sampled bc at hub off by %vx", ratio)
	}
}

// Property: betweenness of degree-1 nodes is always 0 (no shortest path
// passes through a leaf).
func TestBetweennessLeafZeroProperty(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 10; seed++ {
		rng := xrand.New(seed)
		n := rng.IntRange(5, 60)
		g := graph.New(n)
		for u := 1; u < n; u++ {
			mustAdd(t, g, u, rng.Intn(u))
		}
		bc, _ := betweenness(g.Freeze(), 0, nil)
		for v := 0; v < n; v++ {
			if g.Degree(v) == 1 && bc[v] != 0 {
				t.Fatalf("seed %d: leaf %d has bc %v", seed, v, bc[v])
			}
		}
	}
}

// TestBetweennessSampledMatchesBetweenness pins that the one Brandes pass
// consumes the identical pivot draws and reproduces the Graph-based
// reference's scores and standard errors bit for bit, in both sampled and
// exact modes, and that only a sampled run reports uncertainty.
func TestBetweennessSampledMatchesBetweenness(t *testing.T) {
	t.Parallel()
	g := randomConnectedGraph(t, 200, 11)
	f := g.Freeze()
	for _, pivots := range []int{40, 0} {
		want, wantSE := referenceBetweenness(g, pivots, xrand.New(9))
		got, se := betweenness(f, pivots, xrand.New(9))
		anySE := false
		for i := range want {
			if got[i] != want[i] || se[i] != wantSE[i] {
				t.Fatalf("pivots %d node %d: bc %v ± %v, reference %v ± %v", pivots, i, got[i], se[i], want[i], wantSE[i])
			}
			if se[i] < 0 {
				t.Fatal("negative standard error")
			}
			anySE = anySE || se[i] > 0
		}
		if anySE != (pivots > 0) {
			t.Fatalf("pivots %d: nonzero uncertainty %v", pivots, anySE)
		}
	}
}

// TestBetweennessSampledSECoversError checks the SE is a usable error bar
// where it matters: for the highest-centrality nodes — the ones the attack
// strategy actually removes — the sampled estimate should sit within a few
// standard errors of the exact value. (For near-zero-centrality nodes the
// empirical variance is built from rare nonzero contributions and is known
// to under-cover; the attack never consults those nodes.)
func TestBetweennessSampledSECoversError(t *testing.T) {
	t.Parallel()
	f := randomConnectedGraph(t, 400, 5).Freeze()
	exact, _ := betweenness(f, 0, nil)
	bc, se := betweenness(f, 128, xrand.New(7))
	ids := make([]int, len(exact))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return exact[ids[a]] > exact[ids[b]] })
	covered := 0
	const top = 50
	for _, i := range ids[:top] {
		if diff := bc[i] - exact[i]; diff <= 4*se[i] && -diff <= 4*se[i] {
			covered++
		}
	}
	if frac := float64(covered) / top; frac < 0.85 {
		t.Fatalf("only %.0f%% of the top-%d nodes within 4·SE of exact", frac*100, top)
	}
}

func BenchmarkBetweennessExact1k(b *testing.B) {
	rng := xrand.New(1)
	const n = 1000
	g := graph.New(n)
	for u := 1; u < n; u++ {
		mustAdd(b, g, u, rng.Intn(u))
		mustAdd(b, g, u, rng.Intn(u))
	}
	r := newRemoval(g.Freeze(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.bt.run(r.rows, 0, nil)
	}
}

func BenchmarkBetweennessSampledSE1k(b *testing.B) {
	rng := xrand.New(5)
	const n = 1000
	g := graph.New(n)
	for u := 1; u < n; u++ {
		mustAdd(b, g, u, rng.Intn(u))
	}
	r := newRemoval(g.Freeze(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.bt.run(r.rows, 64, xrand.New(uint64(i)))
	}
}
