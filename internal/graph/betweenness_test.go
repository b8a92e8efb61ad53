package graph

import (
	"math"
	"testing"

	"scalefree/internal/xrand"
)

func TestBetweennessPath(t *testing.T) {
	t.Parallel()
	// Path 0-1-2-3-4: bc(2) covers pairs {0,1}x{3,4} plus {0,3},{0,4}...
	// Exact values for a path of 5: bc(0)=0, bc(1)=3, bc(2)=4, symmetric.
	g := path(t, 5)
	bc := g.Freeze().Betweenness(0, nil)
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
	g := New(6)
	for v := 1; v < 6; v++ {
		mustAdd(t, g, 0, v)
	}
	bc := g.Freeze().Betweenness(0, nil)
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
	g := New(6)
	for u := 0; u < 6; u++ {
		mustAdd(t, g, u, (u+1)%6)
	}
	bc := g.Freeze().Betweenness(0, nil)
	for v := 1; v < 6; v++ {
		if math.Abs(bc[v]-bc[0]) > 1e-9 {
			t.Fatalf("cycle bc not uniform: %v", bc)
		}
	}
}

func TestBetweennessEmpty(t *testing.T) {
	t.Parallel()
	if bc := New(0).Freeze().Betweenness(0, nil); len(bc) != 0 {
		t.Fatalf("empty bc %v", bc)
	}
	bc := New(3).Freeze().Betweenness(0, nil)
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
	rng := xrand.New(5)
	const n = 300
	g := New(n)
	for u := 1; u < n; u++ {
		mustAdd(t, g, u, rng.Intn(u))
		if u > 2 {
			v := rng.Intn(u)
			if v != u && !g.HasEdge(u, v) {
				mustAdd(t, g, u, v)
			}
		}
	}
	f := g.Freeze()
	exact := f.Betweenness(0, nil)
	approx := f.Betweenness(100, xrand.New(7))
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
		g := New(n)
		for u := 1; u < n; u++ {
			mustAdd(t, g, u, rng.Intn(u))
		}
		bc := g.Freeze().Betweenness(0, nil)
		for v := 0; v < n; v++ {
			if g.Degree(v) == 1 && bc[v] != 0 {
				t.Fatalf("seed %d: leaf %d has bc %v", seed, v, bc[v])
			}
		}
	}
}

func BenchmarkBetweennessExact1k(b *testing.B) {
	rng := xrand.New(1)
	const n = 1000
	g := New(n)
	for u := 1; u < n; u++ {
		_ = g.AddEdge(u, rng.Intn(u))
		_ = g.AddEdge(u, rng.Intn(u))
	}
	f := g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Betweenness(0, nil)
	}
}
