package des

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// digestTopo is one topology of the Flood digest grid with the sources
// flooded on it.
type digestTopo struct {
	name string
	f    *graph.Frozen
	srcs []int
}

func digestTopos(t testing.TB) []digestTopo {
	t.Helper()
	pa := func(kc int) *graph.Frozen {
		g, _, err := gen.PA(gen.PAConfig{N: 600, M: 2, KC: kc}, xrand.New(101))
		if err != nil {
			t.Fatal(err)
		}
		return g.Freeze()
	}
	const ringN = 50
	ring := graph.New(ringN)
	for i := 0; i < ringN; i++ {
		if err := ring.AddEdge(i, (i+1)%ringN); err != nil {
			t.Fatal(err)
		}
	}
	// A 40-node tree plus two chords (so arrivals race around two
	// cycles), and node 40 left without edges: a source that can send
	// nothing.
	tree, _, err := gen.PA(gen.PAConfig{N: 40, M: 1}, xrand.New(103))
	if err != nil {
		t.Fatal(err)
	}
	lone := tree.AddNode()
	for _, e := range [][2]int{{7, 31}, {12, 38}} {
		if !tree.HasEdge(e[0], e[1]) {
			if err := tree.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []digestTopo{
		{name: "pa", f: pa(gen.NoCutoff), srcs: []int{0, 1, 299, 599}},
		{name: "pa-kc10", f: pa(10), srcs: []int{0, 1, 299, 599}},
		{name: "ring", f: ring.Freeze(), srcs: []int{0, 17}},
		{name: "lone", f: tree.Freeze(), srcs: []int{lone, 0, 7, 39}},
	}
}

// metricsDigest folds every Metrics field into h.
func metricsDigest(h io.Writer, m Metrics) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, x := range []int{m.Hits, m.Sent, m.Delivered, m.Dropped, m.FailDropped, m.Duplicates} {
		put(uint64(x))
	}
	put(math.Float64bits(m.Completion))
	for _, s := range [][]int{m.HitsByHop, m.SentByHop} {
		put(uint64(len(s)))
		for _, x := range s {
			put(uint64(x))
		}
	}
	put(uint64(len(m.TimeByHop)))
	for _, x := range m.TimeByHop {
		put(math.Float64bits(x))
	}
}

// TestFloodMetricsDigests pins every counter Flood reports — not just the
// hits/time/sent columns the figure CSVs sample — to the values the
// queue-every-copy flood produced (captured at commit 31ef2ba, before
// duplicates were resolved at send time; the *-permanent rows at 99c09f8,
// while down-windows could still close). One digest per (topology,
// failure class) folds the latency × loss × τ × source cells
// in a fixed order; Delivered, Duplicates, FailDropped and Completion are
// the fields the send-time path now credits, and the loss draws come from
// a per-cell stream so one extra or missing draw shifts Dropped.
func TestFloodMetricsDigests(t *testing.T) {
	t.Parallel()
	ph := xrand.Phases{Seed: 77, Realization: 5}
	latencies := []Latency{
		{},
		{Base: 1, Phases: ph},
		{Base: 1, Jitter: 1, Phases: ph},
	}
	// Failures strike around t = 2, inside the flood's lifetime under unit
	// latency, and never recover: copies sent over a cut edge or arriving
	// at a crashed node are dropped. One class at a time, then both.
	fails := []struct {
		name string
		plan FailPlan
	}{
		{"none", FailPlan{}},
		{"both", FailPlan{NodeFrac: 0.2, LinkFrac: 0.2, MTBF: 2, Phases: ph}},
		{"crash-permanent", FailPlan{NodeFrac: 0.3, MTBF: 2, Phases: ph}},
		{"cut-permanent", FailPlan{LinkFrac: 0.3, MTBF: 2, Phases: ph}},
	}
	got := map[string]uint64{}
	sim := NewSim(0)
	for _, topo := range digestTopos(t) {
		for _, fl := range fails {
			h := fnv.New64a()
			cell := uint64(0)
			failDropped := 0
			for _, lat := range latencies {
				for _, loss := range []float64{0, 0.1} {
					for _, ttl := range []int{0, 2, 30} {
						cfg := Config{MaxTTL: ttl, Latency: lat, Loss: loss, Fail: fl.plan}
						for _, src := range topo.srcs {
							var rng *xrand.RNG
							if loss > 0 {
								rng = xrand.NewStream(77, cell, uint64(src))
							}
							m, err := sim.Flood(topo.f, src, cfg, rng)
							if err != nil {
								t.Fatal(err)
							}
							metricsDigest(h, m)
							failDropped += m.FailDropped
						}
						cell++
					}
				}
			}
			name := topo.name + "/" + fl.name
			got[name] = h.Sum64()
			if fired := failDropped > 0; fired != fl.plan.Enabled() {
				t.Errorf("%s: %d copies lost to failures, plan enabled = %v", name, failDropped, fl.plan.Enabled())
			}
		}
	}

	want := map[string]uint64{
		"lone/both":               0x44f3e84ac80b7d55,
		"lone/crash-permanent":    0x6edaac0c98c19507,
		"lone/cut-permanent":      0xf96063858f102c6b,
		"lone/none":               0x3202c3f954450811,
		"pa-kc10/both":            0xf4db2b48f93e4719,
		"pa-kc10/crash-permanent": 0x32c46d038a286132,
		"pa-kc10/cut-permanent":   0xce5173d79a6d0a87,
		"pa-kc10/none":            0xec447497010752be,
		"pa/both":                 0xff1f8a30eff7c805,
		"pa/crash-permanent":      0x7cf66b32ac041ca8,
		"pa/cut-permanent":        0xdb5d09309e9564b4,
		"pa/none":                 0x737bcc8b6610b86f,
		"ring/both":               0x427c64b1526431e1,
		"ring/crash-permanent":    0x977c65c3a6394270,
		"ring/cut-permanent":      0x19a58cb0b8a4aee9,
		"ring/none":               0xa44f4a7ea1f71ac8,
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %#x, pinned %#x", name, g, w)
		}
	}
	if t.Failed() {
		for name, g := range got {
			t.Logf("%q: %#x,", name, g)
		}
	}
}

// TestFloodConservation checks the counter identities of a flood
// over random seeds, transport knobs and failure plans: every sent copy
// is delivered, lost in flight or lost to a failure, and every delivery
// is either a first receipt (all hits but the source's own) or a
// duplicate. A source that is down at time 0 reports nothing, so the
// second identity is asserted only when the flood started.
func TestFloodConservation(t *testing.T) {
	t.Parallel()
	topos := digestTopos(t)
	sim := NewSim(0)
	pick := xrand.New(20070625)
	for i := 0; i < 400; i++ {
		topo := topos[pick.Intn(len(topos))]
		ph := xrand.Phases{Seed: pick.Uint64(), Realization: uint64(pick.Intn(8))}
		cfg := Config{
			MaxTTL:  pick.Intn(12),
			Latency: Latency{Base: float64(pick.Intn(2)), Jitter: float64(pick.Intn(3)), Phases: ph},
			Loss:    []float64{0, 0.05, 0.4}[pick.Intn(3)],
			Fail: FailPlan{
				NodeFrac: []float64{0, 0.3, 1}[pick.Intn(3)],
				LinkFrac: []float64{0, 0.3}[pick.Intn(2)],
				MTBF:     0.5 + 3*pick.Float64(),
				Phases:   ph,
			},
		}
		src := pick.Intn(topo.f.N())
		m, err := sim.Flood(topo.f, src, cfg, xrand.New(pick.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		desc := fmt.Sprintf("run %d (%s src=%d cfg=%+v): %+v", i, topo.name, src, cfg, m)
		if m.Sent != m.Delivered+m.Dropped+m.FailDropped {
			t.Fatalf("sent != delivered + dropped + failDropped: %s", desc)
		}
		if m.Hits == 0 {
			if m.Sent != 0 {
				t.Fatalf("a flood that never started sent messages: %s", desc)
			}
			continue
		}
		if m.Delivered != m.Hits-1+m.Duplicates {
			t.Fatalf("delivered != hits - 1 + duplicates: %s", desc)
		}
		if sum := m.HitsWithin(cfg.MaxTTL); sum != m.Hits {
			t.Fatalf("hop histogram sums to %d, hits %d: %s", sum, m.Hits, desc)
		}
	}
}
