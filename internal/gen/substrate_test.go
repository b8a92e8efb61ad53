package gen

import (
	"math"
	"testing"
)

func TestGRNRadiusForMeanDegree(t *testing.T) {
	t.Parallel()
	// kbar = n*pi*R^2 must invert exactly.
	r := GRNRadiusForMeanDegree(20000, 10)
	if got := 20000 * math.Pi * r * r; math.Abs(got-10) > 1e-9 {
		t.Fatalf("round trip kbar = %v", got)
	}
	if GRNRadiusForMeanDegree(0, 10) != 0 || GRNRadiusForMeanDegree(10, 0) != 0 || GRNRadiusForMeanDegree(10, math.NaN()) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestGRNValidation(t *testing.T) {
	t.Parallel()
	if _, _, err := GRNFrozen(GRNConfig{N: 0, R: 0.1}, seedBuild(1)); err == nil {
		t.Error("N=0 should fail")
	}
	if _, _, err := GRNFrozen(GRNConfig{N: 10}, seedBuild(1)); err == nil {
		t.Error("missing R and MeanDegree should fail")
	}
	if _, _, err := GRNFrozen(GRNConfig{N: 10, R: 3}, seedBuild(1)); err == nil {
		t.Error("R > sqrt(2) should fail")
	}
	if _, _, err := GRNFrozen(GRNConfig{N: 10, R: math.NaN()}, seedBuild(1)); err == nil {
		t.Error("R=NaN should fail")
	}
	if _, _, err := GRNFrozen(GRNConfig{N: 10, MeanDegree: math.NaN()}, seedBuild(1)); err == nil {
		t.Error("MeanDegree=NaN should fail")
	}
}

func TestGRNMeanDegree(t *testing.T) {
	t.Parallel()
	const n, kbar = 5000, 10.0
	g, pts, err := GRNFrozen(GRNConfig{N: n, MeanDegree: kbar}, seedBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != n {
		t.Fatalf("%d points", len(pts))
	}
	mean := float64(g.TotalDegree()) / float64(n)
	// Boundary effects depress the mean slightly; allow 15%.
	if mean < kbar*0.8 || mean > kbar*1.1 {
		t.Fatalf("mean degree %.2f, want ~%.0f", mean, kbar)
	}
}

func TestGRNEdgesRespectRadius(t *testing.T) {
	t.Parallel()
	const n, r = 800, 0.08
	g, pts, err := GRNFrozen(GRNConfig{N: n, R: r}, seedBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	// Every edge must join nodes within r; every non-edge pair must be
	// at distance >= r (exact geometric correctness of the grid search).
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := math.Hypot(pts[u].X-pts[v].X, pts[u].Y-pts[v].Y)
			if g.HasEdge(u, v) && d >= r {
				t.Fatalf("edge (%d,%d) at distance %.4f >= r", u, v, d)
			}
			if !g.HasEdge(u, v) && d < r {
				t.Fatalf("missing edge (%d,%d) at distance %.4f < r", u, v, d)
			}
		}
	}
}

func TestGRNGiantComponent(t *testing.T) {
	t.Parallel()
	// Paper §IV-B: with k̄ well above the critical 4.52, the GRN has a
	// giant component covering nearly all nodes.
	g, _, err := GRNFrozen(GRNConfig{N: 10000, MeanDegree: 10}, seedBuild(3))
	if err != nil {
		t.Fatal(err)
	}
	giant := len(g.GiantComponent())
	if frac := float64(giant) / 10000; frac < 0.95 {
		t.Fatalf("giant component %.1f%%", 100*frac)
	}
}

func TestGRNPoissonDegrees(t *testing.T) {
	t.Parallel()
	// GRN degree distribution is approximately Poisson(k̄): variance
	// should be close to the mean (unlike a power law).
	g, _, err := GRNFrozen(GRNConfig{N: 10000, MeanDegree: 10}, seedBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	seq := g.DegreeSequence()
	var mean float64
	for _, k := range seq {
		mean += float64(k)
	}
	mean /= float64(len(seq))
	var variance float64
	for _, k := range seq {
		d := float64(k) - mean
		variance += d * d
	}
	variance /= float64(len(seq))
	if ratio := variance / mean; ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("variance/mean = %.2f, want ~1 for Poisson-like degrees", ratio)
	}
}

func TestGRNDeterminism(t *testing.T) {
	t.Parallel()
	a, _, _ := GRNFrozen(GRNConfig{N: 500, MeanDegree: 8}, seedBuild(7))
	b, _, _ := GRNFrozen(GRNConfig{N: 500, MeanDegree: 8}, seedBuild(7))
	if a.M() != b.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.M(), b.M())
	}
}

func TestMesh(t *testing.T) {
	t.Parallel()
	g, err := Mesh(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Grid edge count: (w-1)*h + w*(h-1) = 3*3 + 4*2 = 17.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	// Corner degree 2, edge 3, interior 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(5) != 4 { // (1,1) interior
		t.Fatalf("interior degree %d", g.Degree(5))
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("mesh must be connected")
	}
}

func TestMeshValidation(t *testing.T) {
	t.Parallel()
	if _, err := Mesh(0, 5); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := Mesh(5, -1); err == nil {
		t.Error("negative height should fail")
	}
}

func TestMeshSingle(t *testing.T) {
	t.Parallel()
	g, err := Mesh(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("1x1 mesh: N=%d M=%d", g.N(), g.M())
	}
}
