package sim

// Findings tests: paper conclusions asserted end-to-end through the
// harness at reduced scale. Most headline claims live in claims.go and are
// exercised by TestCheckClaims; this file keeps the checks that need
// shared substrates or comparisons across three generators.

import (
	"testing"

	"scalefree/internal/gen"
)

// findScale is big enough for the orderings to be stable, small enough
// for CI.
var findScale = Scale{
	NDegree:      6000,
	NSearch:      3000,
	NSubstrate:   6000,
	NOverlay:     3000,
	Realizations: 3,
	Sources:      15,
	MaxTTLFlood:  12,
	MaxTTLNF:     8,
}

// hitsAtEnd returns the y value of the series' last point.
func hitsAtEnd(t *testing.T, s Series) float64 {
	t.Helper()
	if len(s.Points) == 0 {
		t.Fatalf("series %s empty", s.Label)
	}
	return s.Points[len(s.Points)-1].Y
}

// seriesByLabel finds a series in a figure.
func seriesByLabel(t *testing.T, fig Figure, label string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q (have %v)", fig.ID, label, labels(fig))
	return Series{}
}

func labels(fig Figure) []string {
	out := make([]string, len(fig.Series))
	for i, s := range fig.Series {
		out[i] = s.Label
	}
	return out
}

// Finding 5 (§V-B1): larger τ_sub (more global information) improves
// search, and matters more at higher connectedness m.
func TestFindingTauSubHelpsMoreAtHighM(t *testing.T) {
	t.Parallel()
	subs, err := makeSubstrates(findScale.NSubstrate, findScale, 113)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(m int, seed uint64) float64 {
		cfg := searchCfg{alg: algNF, maxTTL: findScale.MaxTTLNF, kMin: m, sc: Scale{Sources: findScale.Sources, Realizations: findScale.Realizations}}
		far, err := searchSeries("tau=20", dapaTopo(subs, findScale.NOverlay, m, gen.NoCutoff, 20), cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		near, err := searchSeries("tau=2", dapaTopo(subs, findScale.NOverlay, m, gen.NoCutoff, 2), cfg, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		return hitsAtEnd(t, far) / hitsAtEnd(t, near)
	}
	r1, r3 := ratio(1, 115), ratio(3, 117)
	if r3 <= r1 {
		t.Fatalf("tau_sub benefit should grow with m: m=1 ratio %.2f, m=3 ratio %.2f", r1, r3)
	}
}

// Finding 6 (§V-B1): "DAPA and HAPA models perform almost as optimal as
// the CM" for NF with m=2 — within a factor of ~2 at the horizon.
func TestFindingLocalModelsTrackCM(t *testing.T) {
	t.Parallel()
	const m, kc = 2, 40
	cfg := searchCfg{alg: algNF, maxTTL: findScale.MaxTTLNF, kMin: m, sc: Scale{Sources: findScale.Sources, Realizations: findScale.Realizations}}
	cm, err := searchSeries("cm", cmTopo(findScale.NSearch, m, kc, 3.0), cfg, 119)
	if err != nil {
		t.Fatal(err)
	}
	hapa, err := searchSeries("hapa", hapaTopo(findScale.NSearch, m, kc), cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := makeSubstrates(findScale.NSubstrate, findScale, 121)
	if err != nil {
		t.Fatal(err)
	}
	dapa, err := searchSeries("dapa", dapaTopo(subs, findScale.NOverlay, m, kc, 6), cfg, 122)
	if err != nil {
		t.Fatal(err)
	}
	cmHits := hitsAtEnd(t, cm)
	for _, s := range []Series{hapa, dapa} {
		if h := hitsAtEnd(t, s); h < cmHits/2.5 {
			t.Errorf("%s NF hits %.0f too far below CM %.0f", s.Label, h, cmHits)
		}
	}
}
