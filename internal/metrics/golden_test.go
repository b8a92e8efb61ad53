package metrics

// Golden-seed regression tests for the CSR-backed metrics. The constants
// were captured from the pre-CSR (edge-map HasEdge, map-based neighbor
// dedupe) implementation at the seed of this PR on the canonical topology
// (PA N=2000 m=2 kc=40, RNG seed 11). The frozen metrics must reproduce
// them exactly.

import (
	"math"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

func goldenMetricsFrozen(t testing.TB) *graph.Frozen {
	t.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 2, KC: 40}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return g.Freeze()
}

func TestGoldenClustering(t *testing.T) {
	t.Parallel()
	f := goldenMetricsFrozen(t)
	if c := GlobalClustering(f); math.Abs(c-0.0057032499) > 1e-9 {
		t.Fatalf("global clustering = %.10f, want 0.0057032499", c)
	}
}

func TestGoldenAssortativity(t *testing.T) {
	t.Parallel()
	f := goldenMetricsFrozen(t)
	r, err := DegreeAssortativity(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-(-0.0806627465)) > 1e-9 {
		t.Fatalf("assortativity = %.10f, want -0.0806627465", r)
	}
}

func TestGoldenRichClubAndDiameter(t *testing.T) {
	t.Parallel()
	f := goldenMetricsFrozen(t)
	rc := RichClub(f)
	if len(rc) != 40 {
		t.Fatalf("rich club thresholds = %d, want 40", len(rc))
	}
	deep := rc[len(rc)-1]
	if deep.K != 39 || deep.Nodes != 12 || math.Abs(deep.Phi-0.2575757576) > 1e-9 {
		t.Fatalf("rich club deepest = %+v, want {39 12 0.2575757576}", deep)
	}
	ed, err := EffectiveDiameter(f, 0.9, 64, xrand.New(35))
	if err != nil {
		t.Fatal(err)
	}
	if ed != 5 {
		t.Fatalf("effective diameter = %d, want 5", ed)
	}
}

func TestGoldenBetweennessAndCores(t *testing.T) {
	t.Parallel()
	f := goldenMetricsFrozen(t)
	bc, _ := betweenness(f, 32, xrand.New(37))
	var sum float64
	for _, b := range bc {
		sum += b
	}
	if math.Abs(sum-7218250.0) > 1e-3 {
		t.Fatalf("betweenness sum = %.6f, want 7218250", sum)
	}
	if math.Abs(bc[17]-75353.761315) > 1e-4 {
		t.Fatalf("bc[17] = %.6f, want 75353.761315", bc[17])
	}
	core := f.CoreNumbers()
	csum := 0
	for _, c := range core {
		csum += c
	}
	if csum != 4000 || f.MaxCore() != 2 {
		t.Fatalf("core sum=%d max=%d, want 4000/2", csum, f.MaxCore())
	}
}
