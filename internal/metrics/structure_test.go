package metrics

import (
	"math"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// clique builds a complete graph on n nodes.
func clique(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// pathG builds a path graph on n nodes.
func pathG(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRichClubClique(t *testing.T) {
	t.Parallel()
	g := clique(t, 6)
	pts := RichClub(g.Freeze())
	if len(pts) == 0 {
		t.Fatal("no rich-club points")
	}
	for _, p := range pts {
		if p.Phi != 1 {
			t.Fatalf("clique rich-club phi(%d) = %v, want 1", p.K, p.Phi)
		}
		if p.Nodes != 6 {
			t.Fatalf("club size %d, want 6 (all degrees equal)", p.Nodes)
		}
	}
}

func TestRichClubStarHasNoClub(t *testing.T) {
	t.Parallel()
	// A star's hub has no peer of comparable degree: the k>=1 club is the
	// hub alone, so the series stops at k=0 where phi counts hub-leaf
	// edges only.
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	pts := RichClub(g.Freeze())
	if len(pts) != 1 || pts[0].K != 0 {
		t.Fatalf("star should only have the k=0 club: %+v", pts)
	}
	// 5 edges among 15 pairs.
	if math.Abs(pts[0].Phi-5.0/15) > 1e-12 {
		t.Fatalf("phi(0) = %v, want 1/3", pts[0].Phi)
	}
}

func TestRichClubMonotoneClubSize(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 1000, M: 2}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pts := RichClub(g.Freeze())
	if len(pts) < 5 {
		t.Fatalf("PA graph should have a deep club series: %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Nodes > pts[i-1].Nodes {
			t.Fatalf("club size must shrink with k: %d -> %d", pts[i-1].Nodes, pts[i].Nodes)
		}
	}
}

func TestRichClubCutoffFlattensClub(t *testing.T) {
	t.Parallel()
	// HAPA without a cutoff forms super-hub cores; kc=10 destroys them.
	free, _, err := gen.HAPA(gen.HAPAConfig{N: 2000, M: 2}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	capped, _, err := gen.HAPA(gen.HAPAConfig{N: 2000, M: 2, KC: 10}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	maxK := func(pts []RichClubPoint) int { return pts[len(pts)-1].K }
	if maxK(RichClub(free.Freeze())) <= maxK(RichClub(capped.Freeze())) {
		t.Fatalf("uncapped HAPA club depth %d should exceed capped %d",
			maxK(RichClub(free.Freeze())), maxK(RichClub(capped.Freeze())))
	}
}

func TestEffectiveDiameterPath(t *testing.T) {
	t.Parallel()
	g := pathG(t, 11) // distances 1..10 from the ends
	d, err := EffectiveDiameter(g.Freeze(), 1.0, g.N(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 10 {
		t.Fatalf("full-quantile effective diameter = %d, want 10", d)
	}
	d90, err := EffectiveDiameter(g.Freeze(), 0.9, g.N(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d90 >= 10 || d90 < 5 {
		t.Fatalf("90%% effective diameter = %d, want in [5,10)", d90)
	}
}

func TestEffectiveDiameterClique(t *testing.T) {
	t.Parallel()
	g := clique(t, 8)
	d, err := EffectiveDiameter(g.Freeze(), 0.9, g.N(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("clique effective diameter = %d, want 1", d)
	}
}

func TestEffectiveDiameterValidation(t *testing.T) {
	t.Parallel()
	g := clique(t, 4)
	if _, err := EffectiveDiameter(g.Freeze(), 0, 4, nil); err == nil {
		t.Error("q=0 should fail")
	}
	if _, err := EffectiveDiameter(g.Freeze(), 1.5, 4, nil); err == nil {
		t.Error("q>1 should fail")
	}
	if _, err := EffectiveDiameter(graph.New(0).Freeze(), 0.9, 1, nil); err == nil {
		t.Error("empty graph should fail")
	}
	if _, err := EffectiveDiameter(graph.New(3).Freeze(), 0.9, 3, nil); err == nil {
		t.Error("edgeless graph has no reachable pairs")
	}
}

func TestEffectiveDiameterSampledClose(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 3000, M: 2}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	full, err := EffectiveDiameter(g.Freeze(), 0.9, g.N(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := EffectiveDiameter(g.Freeze(), 0.9, 64, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sampled - full; diff < -1 || diff > 1 {
		t.Fatalf("sampled estimate %d far from full %d", sampled, full)
	}
}

func TestSitePercolationValidation(t *testing.T) {
	t.Parallel()
	f := clique(t, 4).Freeze()
	if _, err := SitePercolation(f, 1, 1, nil); err == nil {
		t.Error("steps<2 should fail")
	}
	if _, err := SitePercolation(f, 4, 0, nil); err == nil {
		t.Error("trials<1 should fail")
	}
	if _, err := SitePercolation(graph.New(0).Freeze(), 4, 1, nil); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestSitePercolationEndpoints(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 800, M: 2}, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SitePercolation(g.Freeze(), 10, 3, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("want 10 points, got %d", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Occupied != 1 || last.GiantFrac < 0.99 {
		t.Fatalf("p=1 must keep the giant component: %+v", last)
	}
	first := pts[0]
	if first.GiantFrac > 0.2 {
		t.Fatalf("p=0.1 should shatter the network: %+v", first)
	}
	for _, p := range pts {
		if p.GiantFrac < 0 || p.GiantFrac > 1 {
			t.Fatalf("giant fraction out of range: %+v", p)
		}
	}
}

func TestPercolationThresholdInterpolation(t *testing.T) {
	t.Parallel()
	pts := []PercolationPoint{
		{Occupied: 0.2, GiantFrac: 0.0},
		{Occupied: 0.4, GiantFrac: 0.1},
		{Occupied: 0.6, GiantFrac: 0.5},
	}
	got := PercolationThreshold(pts, 0.3)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("threshold = %v, want 0.5 (midway 0.4..0.6)", got)
	}
	if PercolationThreshold(pts, 0.9) != 1 {
		t.Error("unreached fraction should return 1")
	}
	if PercolationThreshold(pts[:1], 0.0) != 0.2 {
		t.Error("first point already above target")
	}
}

func TestCutoffRaisesPercolationThreshold(t *testing.T) {
	t.Parallel()
	// Random-failure resilience is hub-driven: capping degrees at kc=6
	// must raise the occupation needed for a big giant component.
	free, _, err := gen.PA(gen.PAConfig{N: 2500, M: 2}, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	capped, _, err := gen.PA(gen.PAConfig{N: 2500, M: 2, KC: 6}, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(23)
	pf, err := SitePercolation(free.Freeze(), 20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := SitePercolation(capped.Freeze(), 20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	thF := PercolationThreshold(pf, 0.25)
	thC := PercolationThreshold(pc, 0.25)
	if thF > thC {
		t.Fatalf("uncapped threshold %v should be <= capped %v", thF, thC)
	}
}
