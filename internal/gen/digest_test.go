package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// frozenDigest is the FNV-64a hash of g's frozen CSR arrays: the N+1
// offsets, then the concatenated neighbor array, each entry as a
// little-endian int32.
func frozenDigest(g *graph.Graph) uint64 {
	f := g.Freeze()
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	off := int32(0)
	put(off)
	for u := 0; u < f.N(); u++ {
		off += int32(f.Degree(u))
		put(off)
	}
	for u := 0; u < f.N(); u++ {
		for _, v := range f.Neighbors(u) {
			put(v)
		}
	}
	return h.Sum64()
}

// TestGrowthDigests pins every generator that grows on the mutable Graph
// to the adjacency bytes and rejection-loop counters it produced before
// the edge-multiplicity map was removed (captured at commit 2b90b12). The
// counters are the RNG-consumption witnesses: one extra or missing draw
// shifts Attempts or Hops long before it shows in a figure CSV.
func TestGrowthDigests(t *testing.T) {
	t.Parallel()
	legacy := func() Build { return Build{RNG: xrand.New(41)} }
	phased := func() Build { return NewBuild(phasesFor(41, 2), 2) }
	builds := []struct {
		name string
		mk   func() Build
	}{{"legacy", legacy}, {"phased", phased}}

	type result struct {
		Digest                                    uint64
		Attempts, Hops, HorizonQueries, Fallbacks int
	}
	res := func(g *graph.Graph, st Stats) result {
		return result{frozenDigest(g), st.Attempts, st.Hops, st.HorizonQueries, st.Fallbacks}
	}
	got := map[string]result{}

	for _, b := range builds {
		for _, c := range []struct {
			name string
			cfg  PAConfig
		}{
			{"pa", PAConfig{N: 3000, M: 2, KC: 10}},
			{"pa-literal", PAConfig{N: 400, M: 2, KC: 10, LiteralSampling: true}},
		} {
			g, st, err := PABuild(c.cfg, b.mk())
			if err != nil {
				t.Fatal(err)
			}
			got[c.name+"/"+b.name] = res(g, st)
		}
		for _, c := range []struct {
			name string
			cfg  HAPAConfig
		}{
			{"hapa-kc10", HAPAConfig{N: 2000, M: 2, KC: 10}},
			{"hapa-nokc", HAPAConfig{N: 2000, M: 2}},
		} {
			g, st, err := HAPABuild(c.cfg, b.mk())
			if err != nil {
				t.Fatal(err)
			}
			got[c.name+"/"+b.name] = res(g, st)
		}
		sub, _, err := GRNFrozen(GRNConfig{N: 2400, MeanDegree: 10}, b.mk())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			tau  int
		}{{"dapa-tau2", 2}, {"dapa-tau10", 10}} {
			ov, st, err := DAPABuild(sub, DAPAConfig{NOverlay: 1200, M: 2, KC: 10, TauSub: c.tau}, b.mk())
			if err != nil {
				t.Fatal(err)
			}
			got[c.name+"/"+b.name] = res(ov.G, st)
		}
	}

	// NLPA, LocalEvents and WattsStrogatz have no Build variant: one
	// stream only.
	g, st, err := NLPA(NLPAConfig{N: 2000, M: 2, KC: 20, Alpha: 0.7}, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	got["nlpa"] = res(g, st)
	g, st, err = LocalEvents(LocalEventsConfig{N: 1500, M: 2, KC: 20, P: 0.2, Q: 0.3}, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	got["rewire"] = res(g, st)
	g, err = WattsStrogatz(1500, 3, 0.2, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	got["ws"] = res(g, Stats{})

	want := map[string]result{
		"dapa-tau10/legacy": {0x6321f88530c5b5e3, 229971, 0, 1220, 0},
		"dapa-tau10/phased": {0xeae17c608aaee062, 225559, 0, 1256, 0},
		"dapa-tau2/legacy":  {0x3fd7d7873b6a209e, 21533, 0, 3318, 0},
		"dapa-tau2/phased":  {0xaadac3636adb8e29, 21102, 0, 4563, 0},
		"hapa-kc10/legacy":  {0x73a3c21111be2446, 7468499, 7466502, 0, 0},
		"hapa-kc10/phased":  {0x4669ffa4b628b5ab, 7631618, 7629621, 0, 0},
		"hapa-nokc/legacy":  {0x68801d1d06bad076, 54196, 52199, 0, 0},
		"hapa-nokc/phased":  {0xe1d5be985c831698, 52733, 50736, 0, 0},
		"nlpa":              {0xb62fe0854cd6554, 5270, 0, 0, 0},
		"pa-literal/legacy": {0x953566c9ba8ccd8, 210879, 0, 0, 0},
		"pa-literal/phased": {0xac00db2e71220c51, 242819, 0, 0, 0},
		"pa/legacy":         {0x53863b7a0502879c, 8053, 0, 0, 0},
		"pa/phased":         {0x8d139561f514a1d2, 8106, 0, 0, 0},
		"rewire":            {0x8010e59991a7207b, 7479, 0, 0, 0},
		"ws":                {0xb8268007638fb7c8, 0, 0, 0, 0},
	}
	if len(got) != len(want) {
		t.Errorf("%d cases built, %d pinned", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %#v, pinned %#v", name, g, w)
		}
	}
	if t.Failed() {
		for name, g := range got {
			t.Logf("%q: {%#x, %d, %d, %d, %d},", name, g.Digest, g.Attempts, g.Hops, g.HorizonQueries, g.Fallbacks)
		}
	}
}
