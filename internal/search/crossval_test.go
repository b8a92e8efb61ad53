package search

// Cross-validation property tests: the search algorithms' outputs are
// checked against independent graph-theoretic ground truth on random
// topologies.

import (
	"testing"
	"testing/quick"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// randomConnectedGraph builds a random connected simple graph.
func randomConnectedGraph(rng *xrand.RNG) *graph.Graph {
	n := rng.IntRange(2, 80)
	g := graph.New(n)
	// Random spanning tree first, then extra edges.
	for u := 1; u < n; u++ {
		if err := g.AddEdge(u, rng.Intn(u)); err != nil {
			panic(err)
		}
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// Property: FL hits at TTL t equal the BFS ball size |{v : d(v) <= t}| —
// flooding is exactly a breadth-first sweep.
func TestFloodMatchesBFSBallProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomConnectedGraph(rng)
		src := rng.Intn(g.N())
		maxTTL := rng.IntRange(0, 10)
		res, err := new(Scratch).Flood(g.Freeze(), src, maxTTL)
		if err != nil {
			return false
		}
		dist := g.BFS(src)
		for tau := 0; tau <= maxTTL; tau++ {
			ball := 0
			for _, d := range dist {
				if d >= 0 && int(d) <= tau {
					ball++
				}
			}
			if res.Hits[tau] != ball {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: NF hits never exceed FL hits at the same TTL (NF forwards to
// a subset of FL's targets), and NF messages never exceed FL messages.
func TestNFDominatedByFLProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomConnectedGraph(rng)
		src := rng.Intn(g.N())
		const maxTTL = 8
		kMin := rng.IntRange(1, 4)
		fl, err := new(Scratch).Flood(g.Freeze(), src, maxTTL)
		if err != nil {
			return false
		}
		nf, err := new(Scratch).NormalizedFlood(g.Freeze(), src, maxTTL, kMin, rng)
		if err != nil {
			return false
		}
		for tau := 0; tau <= maxTTL; tau++ {
			if nf.Hits[tau] > fl.Hits[tau] {
				return false
			}
			if nf.Messages[tau] > fl.Messages[tau] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: RW visits form a connected walk — every newly discovered node
// at step t is adjacent to the walk; hits grow by at most 1 per step.
func TestRWIncrementalProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomConnectedGraph(rng)
		src := rng.Intn(g.N())
		res, err := new(Scratch).RandomWalk(g.Freeze(), src, 50, rng)
		if err != nil {
			return false
		}
		for tau := 1; tau <= 50; tau++ {
			delta := res.Hits[tau] - res.Hits[tau-1]
			if delta < 0 || delta > 1 {
				return false
			}
		}
		return res.Hits[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FloodDelivery's reported time equals the true shortest path.
func TestFloodDeliveryMatchesBFSProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := randomConnectedGraph(rng)
		src, dst := rng.Intn(g.N()), rng.Intn(g.N())
		d, err := new(Scratch).FloodDelivery(g.Freeze(), src, dst, g.N())
		if err != nil {
			return false
		}
		want := int(g.BFS(src)[dst])
		return d.Found && d.Time == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check the static searches against the live protocol: a flood on a
// generated topology and the same topology driven through handleQuery
// semantics must agree on reachability. (The live runtime is tested in
// internal/p2p; here we pin the static side against gen outputs.)
func TestFloodReachesGiantComponentExactly(t *testing.T) {
	t.Parallel()
	g, _, err := gen.CM(gen.CMConfig{N: 3000, M: 1, Gamma: 2.4}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	comps := g.ConnectedComponents()
	if len(comps) < 2 {
		t.Skip("CM draw happened to be connected")
	}
	src := comps[0][0]
	res, err := new(Scratch).Flood(g.Freeze(), src, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if res.HitsAt(g.N()) != len(comps[0]) {
		t.Fatalf("flood swept %d nodes, component has %d", res.HitsAt(g.N()), len(comps[0]))
	}
}
