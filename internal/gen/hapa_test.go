package gen

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

func genHAPA(t *testing.T, cfg HAPAConfig, seed uint64) (*graph.Graph, Stats) {
	t.Helper()
	g, st, err := HAPA(cfg, xrand.New(seed))
	if err != nil {
		t.Fatalf("HAPA(%+v): %v", cfg, err)
	}
	return g, st
}

func TestHAPAValidation(t *testing.T) {
	t.Parallel()
	cases := []HAPAConfig{
		{N: 10, M: 0},
		{N: 2, M: 2},
		{N: 100, M: 3, KC: 1},
	}
	for _, cfg := range cases {
		if _, _, err := HAPA(cfg, xrand.New(1)); err == nil {
			t.Errorf("HAPA(%+v) should have failed validation", cfg)
		}
	}
}

func TestHAPABasicStructure(t *testing.T) {
	t.Parallel()
	const n, m = 2000, 2
	g, st := genHAPA(t, HAPAConfig{N: n, M: m}, 1)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	wantM := m*(m+1)/2 + (n-m-1)*m - st.UnfilledStubs
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("HAPA graph must be connected")
	}
	if st.Hops == 0 {
		t.Fatal("HAPA should record hop-walk steps")
	}
}

func TestHAPADeterminism(t *testing.T) {
	t.Parallel()
	cfg := HAPAConfig{N: 600, M: 2, KC: 30}
	a, _ := genHAPA(t, cfg, 3)
	b, _ := genHAPA(t, cfg, 3)
	for u := 0; u < a.N(); u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("degree(%d) differs", u)
		}
	}
}

func TestHAPACutoffEnforced(t *testing.T) {
	t.Parallel()
	for _, kc := range []int{5, 10, 50} {
		g, _ := genHAPA(t, HAPAConfig{N: 2000, M: 1, KC: kc}, 7)
		if g.MaxDegree() > kc {
			t.Errorf("kc=%d: max degree %d", kc, g.MaxDegree())
		}
	}
}

func TestHAPASuperHubsWithoutCutoff(t *testing.T) {
	t.Parallel()
	// Paper §IV-A: without a cutoff HAPA produces super hubs "on the
	// order of network size" — far larger than PA's natural cutoff
	// m·sqrt(N).
	const n = 3000
	g, _ := genHAPA(t, HAPAConfig{N: n, M: 1}, 5)
	if g.MaxDegree() < n/10 {
		t.Fatalf("max degree %d; expected a super hub of order N=%d", g.MaxDegree(), n)
	}
	// And star-like means very small mean path length relative to PA.
	st := g.Freeze().SamplePathStats(30, xrand.New(1))
	if st.MeanDistance > 4 {
		t.Fatalf("mean distance %.2f too large for star-like topology", st.MeanDistance)
	}
}

func TestHAPACutoffDestroysStar(t *testing.T) {
	t.Parallel()
	// Figs 3(b,c): a hard cutoff removes the super hubs.
	const n, kc = 3000, 10
	g, _ := genHAPA(t, HAPAConfig{N: n, M: 1, KC: kc}, 9)
	if g.MaxDegree() > kc {
		t.Fatalf("cutoff violated: %d", g.MaxDegree())
	}
	// Many nodes accumulate at the cutoff.
	h := g.Freeze().DegreeHistogram()
	if h[kc] < n/100 {
		t.Fatalf("only %d nodes at cutoff; expected accumulation", h[kc])
	}
}

func TestHAPAMinDegree(t *testing.T) {
	t.Parallel()
	g, st := genHAPA(t, HAPAConfig{N: 1500, M: 3, KC: 50}, 11)
	if minDeg := g.Freeze().MinDegree(); st.UnfilledStubs == 0 && minDeg < 3 {
		t.Fatalf("min degree %d < m=3 with no unfilled stubs", minDeg)
	}
}

func TestHAPATightCutoffTerminates(t *testing.T) {
	t.Parallel()
	// kc == m saturates the seed clique immediately; generation must
	// terminate via fallbacks/unfilled accounting rather than hang.
	g, st, err := HAPA(HAPAConfig{N: 60, M: 2, KC: 2}, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 2 {
		t.Fatalf("max degree %d > kc", g.MaxDegree())
	}
	if st.UnfilledStubs == 0 {
		t.Fatal("expected unfilled stubs at saturating cutoff")
	}
}
