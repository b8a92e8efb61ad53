package scalefree

// Completeness pass over the façade: every re-exported function is called
// once through the public surface, catching wiring mistakes (wrong
// internal target, swapped arguments) that the internal tests cannot see.

import (
	"slices"
	"testing"
)

func TestFacadeTopologyWrappers(t *testing.T) {
	t.Parallel()
	rng := NewRNG(1)
	f, _, err := GeneratePA(PAConfig{N: 600, M: 2, KC: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if gi := DegreeGini(f); gi <= 0 || gi >= 1 {
		t.Fatalf("DegreeGini = %v", gi)
	}
	if ts := TopLoadShare(f, 0.01); ts <= 0 || ts > 1 {
		t.Fatalf("TopLoadShare = %v", ts)
	}
	if c := GlobalClustering(f); c < 0 || c > 1 {
		t.Fatalf("clustering %v", c)
	}
}

// TestFacadeSearchGolden pins the facade searches to the kernels behind
// them: on the search package's canonical golden topology (PA N=2000, m=2,
// kc=40, RNG seed 11) they must reproduce the constants of
// internal/search/golden_test.go exactly.
func TestFacadeSearchGolden(t *testing.T) {
	t.Parallel()
	f, _, err := GeneratePA(PAConfig{N: 2000, M: 2, KC: 40}, NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	eq := func(name string, got, want []int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	fl, err := Flood(f, 17, 8)
	if err != nil {
		t.Fatal(err)
	}
	eq("flood.Hits", fl.Hits, []int{1, 41, 282, 1179, 1935, 2000, 2000, 2000, 2000})
	eq("flood.Messages", fl.Messages, []int{0, 40, 309, 1720, 4583, 5909, 5995, 5995, 5995})

	nf, err := NormalizedFlood(f, 17, 8, 2, NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	eq("nf.Hits", nf.Hits, []int{1, 3, 6, 11, 18, 32, 55, 91, 149})
	eq("nf.Messages", nf.Messages, []int{0, 2, 5, 10, 17, 31, 54, 91, 154})

	rw, nfb, err := RandomWalkWithNFBudget(f, 17, 6, 2, NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eq("rwb.Hits", rw.Hits, []int{1, 3, 7, 14, 24, 41, 68})
	eq("rwb.Messages", rw.Messages, []int{0, 2, 6, 13, 23, 41, 69})
	eq("rwb.nf.Hits", nfb.Hits, []int{1, 3, 7, 14, 24, 41, 67})
}
