package metrics

import (
	"errors"
	"math"
	"slices"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGlobalClusteringTriangle(t *testing.T) {
	t.Parallel()
	if c := GlobalClustering(triangle(t).Freeze()); c != 1 {
		t.Fatalf("triangle clustering %v, want 1", c)
	}
}

func TestGlobalClusteringStar(t *testing.T) {
	t.Parallel()
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if c := GlobalClustering(g.Freeze()); c != 0 {
		t.Fatalf("star clustering %v, want 0", c)
	}
}

func TestGlobalClusteringEmpty(t *testing.T) {
	t.Parallel()
	if c := GlobalClustering(graph.New(4).Freeze()); c != 0 {
		t.Fatalf("edgeless clustering %v", c)
	}
}

func TestGlobalClusteringKite(t *testing.T) {
	t.Parallel()
	// Triangle plus a pendant: 1 triangle, triples = C(2,2 at apexes):
	// node degrees: 0:2, 1:2, 2:3, 3:1 -> triples = 1+1+3+0 = 5;
	// triangles counted per apex = 3. Transitivity = 3/5.
	g := triangle(t)
	g.AddNode()
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if c := GlobalClustering(g.Freeze()); math.Abs(c-0.6) > 1e-12 {
		t.Fatalf("kite transitivity %v, want 0.6", c)
	}
}

func TestClusteringIgnoresMultiEdges(t *testing.T) {
	t.Parallel()
	g := triangle(t)
	if err := g.AddEdge(0, 1); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 0); err != nil { // self-loop
		t.Fatal(err)
	}
	if c := GlobalClustering(g.Freeze()); c != 1 {
		t.Fatalf("clustering with multigraph artifacts %v, want 1", c)
	}
}

func TestPATreeHasNoClustering(t *testing.T) {
	t.Parallel()
	// Paper §III: m=1 yields "a scale-free tree without clustering".
	g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 1}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if c := GlobalClustering(g.Freeze()); c != 0 {
		t.Fatalf("PA tree clustering %v, want 0", c)
	}
}

func TestDegreeAssortativity(t *testing.T) {
	t.Parallel()
	// A star is maximally disassortative (r = -1).
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	r, err := DegreeAssortativity(g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-9 {
		t.Fatalf("star assortativity %v, want -1", r)
	}
	// Edgeless graph errors.
	if _, err := DegreeAssortativity(graph.New(3).Freeze()); !errors.Is(err, ErrNoEdges) {
		t.Fatalf("err = %v", err)
	}
	// Regular ring: degenerate correlation reported as 0.
	ring, err := gen.Ring(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err = DegreeAssortativity(ring.Freeze())
	if err != nil || r != 0 {
		t.Fatalf("ring assortativity %v, %v", r, err)
	}
}

func TestPAIsNotAssortative(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 5000, M: 2}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := DegreeAssortativity(g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.05 {
		t.Fatalf("PA assortativity %v; growth models are non-assortative", r)
	}
}

func TestRobustnessValidation(t *testing.T) {
	t.Parallel()
	f := triangle(t).Freeze()
	if _, err := Robustness(f, RemoveRandom, 0, 0.5, xrand.New(1)); err == nil {
		t.Error("step 0 should fail")
	}
	if _, err := Robustness(f, RemovalStrategy(9), 0.1, 0.5, xrand.New(1)); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := Robustness(graph.New(0).Freeze(), RemoveRandom, 0.1, 0.5, xrand.New(1)); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestRobustnessDoesNotMutateInput(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 500, M: 2}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// The removals run on a private copy of the rows: every row of the
	// snapshot reads as it did before, in order.
	f := g.Freeze()
	before := g.Freeze()
	if _, err := Robustness(f, RemoveHighestDegree, 0.05, 0.5, xrand.New(6)); err != nil {
		t.Fatal(err)
	}
	for u := range f.N() {
		if !slices.Equal(f.Neighbors(u), before.Neighbors(u)) {
			t.Fatalf("input mutated: row %d %v -> %v", u, before.Neighbors(u), f.Neighbors(u))
		}
	}
}

func TestRobustnessMonotoneRemoval(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 1000, M: 2}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	pts, err := Robustness(f, RemoveRandom, 0.05, 0.6, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("too few points: %d", len(pts))
	}
	if pts[0].RemovedFrac != 0 || pts[0].GiantFrac < 0.99 {
		t.Fatalf("initial point %+v", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].RemovedFrac <= pts[i-1].RemovedFrac {
			t.Fatal("removed fraction not increasing")
		}
		if pts[i].GiantFrac > pts[i-1].GiantFrac+1e-9 {
			t.Fatal("giant fraction increased after removals")
		}
	}
}

func TestRobustYetFragile(t *testing.T) {
	t.Parallel()
	// The paper's §III claim: scale-free networks tolerate random
	// failures but shatter under targeted attacks. Compare the giant
	// fraction after removing 20% of a PA network both ways.
	g, _, err := gen.PA(gen.PAConfig{N: 4000, M: 2}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	random, err := Robustness(f, RemoveRandom, 0.05, 0.2, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	attack, err := Robustness(f, RemoveHighestDegree, 0.05, 0.2, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rndGiant := random[len(random)-1].GiantFrac
	atkGiant := attack[len(attack)-1].GiantFrac
	if rndGiant < 0.6 {
		t.Fatalf("random failures collapsed the giant: %.2f", rndGiant)
	}
	if atkGiant >= rndGiant {
		t.Fatalf("targeted attack (%.2f) should hurt more than random (%.2f)", atkGiant, rndGiant)
	}
}

func TestHardCutoffBluntsAttacks(t *testing.T) {
	t.Parallel()
	// The motivation payoff: with no super-hubs to decapitate, a
	// hard-cutoff topology should survive targeted attacks better.
	giantAfterAttack := func(kc int, seed uint64) float64 {
		g, _, err := gen.PA(gen.PAConfig{N: 4000, M: 2, KC: kc}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := Robustness(g.Freeze(), RemoveHighestDegree, 0.05, 0.25, xrand.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		return pts[len(pts)-1].GiantFrac
	}
	var capped, uncapped float64
	for s := uint64(0); s < 3; s++ {
		capped += giantAfterAttack(10, 20+2*s)
		uncapped += giantAfterAttack(gen.NoCutoff, 30+2*s)
	}
	if capped <= uncapped {
		t.Fatalf("hard cutoff should improve attack tolerance: kc=10 giant %.2f vs none %.2f",
			capped/3, uncapped/3)
	}
}
