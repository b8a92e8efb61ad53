package scalefree

import (
	"math"
	"testing"
)

// These tests exercise the public façade end to end, as a downstream user
// would: generate, analyze and search.

func TestPublicAPIGenerateAndSearch(t *testing.T) {
	t.Parallel()
	rng := NewRNG(1)
	f, _, err := GeneratePA(PAConfig{N: 2000, M: 2, KC: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 2000 || f.MaxDegree() > 40 {
		t.Fatalf("N=%d maxDeg=%d", f.N(), f.MaxDegree())
	}

	fl, err := Flood(f, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NormalizedFlood(f, 0, 10, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	rw, nfb, err := RandomWalkWithNFBudget(f, 0, 10, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fl.HitsAt(10) < nf.HitsAt(10) {
		t.Fatal("FL should dominate NF in coverage")
	}
	if rw.MessagesAt(10) != nfb.MessagesAt(10) {
		t.Fatal("RW budget mismatch")
	}
}

func TestPublicAPIDegreeAnalysis(t *testing.T) {
	t.Parallel()
	rng := NewRNG(2)
	g, _, err := GenerateCM(CMConfig{N: 20000, M: 1, Gamma: 2.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := DegreeDistribution(g)
	fit, err := FitDegreeExponent(d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gamma-2.5) > 0.4 {
		t.Fatalf("fitted gamma %.2f", fit.Gamma)
	}
	if nc := NaturalCutoff(10000, 2, 3); math.Abs(nc-200) > 1e-9 {
		t.Fatalf("natural cutoff %v", nc)
	}
}

func TestPublicAPIDAPAOnSubstrate(t *testing.T) {
	t.Parallel()
	rng := NewRNG(3)
	sub, pts, err := GenerateGRN(GRNConfig{N: 2000, MeanDegree: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2000 {
		t.Fatalf("points %d", len(pts))
	}
	ov, st, err := GenerateDAPA(sub, DAPAConfig{NOverlay: 800, M: 2, KC: 20, TauSub: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Joined != 800 || ov.MaxDegree() > 20 {
		t.Fatalf("joined=%d maxDeg=%d", st.Joined, ov.MaxDegree())
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	t.Parallel()
	rng := NewRNG(4)
	if _, err := GenerateER(100, 200, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateWattsStrogatz(100, 2, 0.1, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateMesh(5, 5); err != nil {
		t.Fatal(err)
	}
}
