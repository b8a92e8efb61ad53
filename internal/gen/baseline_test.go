package gen

import (
	"math"
	"testing"

	"scalefree/internal/xrand"
)

func TestER(t *testing.T) {
	t.Parallel()
	g, err := ER(100, 300, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 || g.M() != 300 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	f := g.Freeze()
	for u := 0; u < 100; u++ {
		if f.EdgeMultiplicity(u, u) != 0 {
			t.Fatal("ER produced self-loop")
		}
		for v := u + 1; v < 100; v++ {
			if f.EdgeMultiplicity(u, v) > 1 {
				t.Fatal("ER produced multi-edge")
			}
		}
	}
}

func TestERValidation(t *testing.T) {
	t.Parallel()
	if _, err := ER(0, 1, xrand.New(1)); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := ER(4, 7, xrand.New(1)); err == nil {
		t.Error("too many edges should fail")
	}
	if _, err := ER(4, -1, xrand.New(1)); err == nil {
		t.Error("negative edges should fail")
	}
}

func TestERComplete(t *testing.T) {
	t.Parallel()
	// Requesting the maximum edge count must terminate with K_n.
	g, err := ER(6, 15, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if minDeg := g.Freeze().MinDegree(); g.M() != 15 || minDeg != 5 {
		t.Fatalf("complete graph: M=%d minDeg=%d", g.M(), minDeg)
	}
}

func TestRing(t *testing.T) {
	t.Parallel()
	g, err := Ring(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 20 {
		t.Fatalf("M=%d, want n*k=20", g.M())
	}
	for u := 0; u < 10; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("degree(%d)=%d, want 2k=4", u, g.Degree(u))
		}
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("ring must be connected")
	}
	// Ring diameter: floor(n/(2k)) hops... for n=10,k=2 farthest node is
	// 5 steps around, reachable in ceil(5/2)=3 hops.
	if d := g.Freeze().EstimateDiameter(5, xrand.New(1)); d != 3 {
		t.Fatalf("ring diameter %d, want 3", d)
	}
}

func TestRingValidation(t *testing.T) {
	t.Parallel()
	if _, err := Ring(4, 2); err == nil {
		t.Error("n <= 2k should fail")
	}
	if _, err := Ring(10, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestWattsStrogatz(t *testing.T) {
	t.Parallel()
	g, err := WattsStrogatz(500, 3, 0.1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 {
		t.Fatalf("N=%d", g.N())
	}
	// Rewiring preserves edge count.
	if g.M() != 1500 {
		t.Fatalf("M=%d, want 1500", g.M())
	}
	// Small-world: diameter far below the lattice's n/(2k)≈83.
	lattice, err := Ring(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	dWS := g.Freeze().SamplePathStats(50, xrand.New(2)).MeanDistance
	dLat := lattice.Freeze().SamplePathStats(50, xrand.New(2)).MeanDistance
	if dWS >= dLat/2 {
		t.Fatalf("WS mean path %.1f not much shorter than lattice %.1f", dWS, dLat)
	}
}

func TestWattsStrogatzBetaZeroIsLattice(t *testing.T) {
	t.Parallel()
	g, err := WattsStrogatz(50, 2, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Ring(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			if g.HasEdge(u, v) != ring.HasEdge(u, v) {
				t.Fatalf("beta=0 differs from lattice at (%d,%d)", u, v)
			}
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	t.Parallel()
	if _, err := WattsStrogatz(50, 2, -0.1, xrand.New(1)); err == nil {
		t.Error("negative beta should fail")
	}
	if _, err := WattsStrogatz(50, 2, 1.1, xrand.New(1)); err == nil {
		t.Error("beta > 1 should fail")
	}
	if _, err := WattsStrogatz(50, 2, math.NaN(), xrand.New(1)); err == nil {
		t.Error("beta=NaN should fail")
	}
	if _, err := WattsStrogatz(4, 2, 0.5, xrand.New(1)); err == nil {
		t.Error("invalid lattice should fail")
	}
}

func TestModelLocalityTable(t *testing.T) {
	t.Parallel()
	// Table II exactly.
	want := map[Model]string{
		ModelPA:   "Yes",
		ModelCM:   "Yes",
		ModelHAPA: "Partial",
		ModelDAPA: "No",
	}
	for model, usage := range want {
		if got := ModelLocality[model].String(); got != usage {
			t.Errorf("Table II: %s uses global info %q, want %q", model, got, usage)
		}
	}
}
