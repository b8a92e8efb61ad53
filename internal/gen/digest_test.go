package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// frozenDigest is the FNV-64a hash of f's CSR arrays: the N+1 offsets,
// then the concatenated neighbor array, each entry as a little-endian
// int32.
func frozenDigest(f *graph.Frozen) uint64 {
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
// the edge-multiplicity map was removed (captured at commit 2b90b12; the
// m = 1, m = 3 and saturated HAPA rows and the UnfilledStubs column at
// 25a7b93, before HAPA's attempt was inlined into its hop loop). The
// counters are the RNG-consumption witnesses: one extra or missing draw
// shifts Attempts or Hops long before it shows in a figure CSV. The cm and
// grn rows pin the direct-to-CSR builds, which draw no counters, by
// digest alone. The pa-literal row pins paLiteral, the Appendix A oracle
// in pa_test.go, grown on PA's "pa.grow" stream. The hapa rows cover
// m = 1, 2 and 3; hapa-saturated fills every node to its cutoff of 3, so
// its late joiners exhaust the hop budget and the row pins the restart
// draws, the exact-fallback placements and the unfilled stubs.
func TestGrowthDigests(t *testing.T) {
	t.Parallel()
	b := NewBuild(phasesFor(41, 2), 2)

	type result struct {
		Digest                                                   uint64
		Attempts, Hops, HorizonQueries, Fallbacks, UnfilledStubs int
	}
	res := func(g *graph.Graph, st Stats) result {
		return result{frozenDigest(g.Freeze()), st.Attempts, st.Hops, st.HorizonQueries, st.Fallbacks, st.UnfilledStubs}
	}
	got := map[string]result{}

	pa, st, err := PABuild(PAConfig{N: 3000, M: 2, KC: 10}, b)
	if err != nil {
		t.Fatal(err)
	}
	got["pa/phased"] = res(pa, st)
	got["pa-literal/phased"] = res(paLiteral(t, PAConfig{N: 400, M: 2, KC: 10}, b.Phases.Stream("pa.grow")))
	for _, c := range []struct {
		name string
		cfg  HAPAConfig
	}{
		{"hapa-kc10", HAPAConfig{N: 2000, M: 2, KC: 10}},
		{"hapa-nokc", HAPAConfig{N: 2000, M: 2}},
		{"hapa-m1-kc10", HAPAConfig{N: 2000, M: 1, KC: 10}},
		{"hapa-m3-kc50", HAPAConfig{N: 2000, M: 3, KC: 50}},
		{"hapa-saturated", HAPAConfig{N: 60, M: 2, KC: 3}},
	} {
		g, st, err := HAPABuild(c.cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name+"/phased"] = res(g, st)
	}
	cm, _, err := CMFrozen(CMConfig{N: 3000, M: 2, KC: 40, Gamma: 2.4}, b)
	if err != nil {
		t.Fatal(err)
	}
	got["cm/phased"] = result{Digest: frozenDigest(cm)}
	sub, _, err := GRNFrozen(GRNConfig{N: 2400, MeanDegree: 10}, b)
	if err != nil {
		t.Fatal(err)
	}
	got["grn/phased"] = result{Digest: frozenDigest(sub)}
	for _, c := range []struct {
		name string
		tau  int
	}{{"dapa-tau2", 2}, {"dapa-tau10", 10}} {
		ov, st, err := DAPABuild(sub, DAPAConfig{NOverlay: 1200, M: 2, KC: 10, TauSub: c.tau}, b)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name+"/phased"] = res(ov.G, st)
	}

	// WattsStrogatz has no Build variant: one stream only.
	g, err := WattsStrogatz(1500, 3, 0.2, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	got["ws"] = res(g, Stats{})

	want := map[string]result{
		"cm/phased":             {0x302a5a69140790e9, 0, 0, 0, 0, 0},
		"grn/phased":            {0xbcc93dcce7d56638, 0, 0, 0, 0, 0},
		"dapa-tau10/phased":     {0xeae17c608aaee062, 225559, 0, 1256, 0, 0},
		"dapa-tau2/phased":      {0xaadac3636adb8e29, 21102, 0, 4563, 0, 0},
		"hapa-kc10/phased":      {0x4669ffa4b628b5ab, 7631618, 7629621, 0, 0, 0},
		"hapa-nokc/phased":      {0xe1d5be985c831698, 52733, 50736, 0, 0, 0},
		"hapa-m1-kc10/phased":   {0xc620a5f11f6f42c3, 2609964, 2607966, 0, 0, 0},
		"hapa-m3-kc50/phased":   {0x62d8b34558aeded2, 6428942, 6426946, 0, 0, 0},
		"hapa-saturated/phased": {0xa3ec5499d8851643, 13665941, 13665884, 0, 1, 28},
		"pa-literal/phased":     {0xac00db2e71220c51, 242819, 0, 0, 0, 0},
		"pa/phased":             {0x8d139561f514a1d2, 8106, 0, 0, 0, 0},
		"ws":                    {0xb8268007638fb7c8, 0, 0, 0, 0, 0},
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
			t.Logf("%q: {%#x, %d, %d, %d, %d, %d},", name, g.Digest, g.Attempts, g.Hops, g.HorizonQueries, g.Fallbacks, g.UnfilledStubs)
		}
	}
}
