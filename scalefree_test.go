package scalefree

import (
	"math"
	"testing"
)

// These tests exercise the public façade end to end, as a downstream user
// would: generate, analyze, search, and run a live overlay.

func TestPublicAPIGenerateAndSearch(t *testing.T) {
	t.Parallel()
	rng := NewRNG(1)
	g, _, err := GeneratePA(PAConfig{N: 2000, M: 2, KC: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 || g.MaxDegree() > 40 {
		t.Fatalf("N=%d maxDeg=%d", g.N(), g.MaxDegree())
	}

	fl, err := Flood(g, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NormalizedFlood(g, 0, 10, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	rw, nfb, err := RandomWalkWithNFBudget(g, 0, 10, 2, rng)
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
	if st.Joined != 800 || ov.G.MaxDegree() > 20 {
		t.Fatalf("joined=%d maxDeg=%d", st.Joined, ov.G.MaxDegree())
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

func TestPublicAPILiveOverlay(t *testing.T) {
	t.Parallel()
	o, err := NewOverlay(OverlayConfig{M: 2, KC: 10, TauSub: 4, Strategy: JoinDAPA, Seed: 5, DiscoverWindow: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	if err := o.Grow(30, func(i int) []string {
		if i == 17 {
			return []string{"target"}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	src := o.Peer(o.Addrs()[0])
	res, err := src.Query("target", SearchFlood, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 {
		t.Fatalf("hits %v", res.Hits)
	}
}
