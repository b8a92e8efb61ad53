package graph_test

// The read-path digests live in the external test package because two of
// their graphs come from generators, and gen imports graph.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// digest is the FNV-1a hash of v's fmt rendering.
func digest(v ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, v...)
	return h.Sum64()
}

// frozenDigest hashes a snapshot's edge count and every row in adjacency
// order, plus the new-to-old ID mapping.
func frozenDigest(f *graph.Frozen, orig []int) uint64 {
	rows := make([][]int32, f.N())
	for u := range rows {
		rows[u] = f.Neighbors(u)
	}
	return digest(f.M(), rows, orig)
}

// readDigests runs every read-only analysis of a snapshot and returns one
// digest per output.
func readDigests(f *graph.Frozen) map[string]uint64 {
	n := f.N()
	sources := []int{0, n / 2, n - 1}
	giant := f.GiantComponent()
	var ascending, shuffled []int
	for u := 0; u < n; u += 3 {
		ascending = append(ascending, u)
	}
	for i := 0; i < n/4; i++ {
		shuffled = append(shuffled, i*7%n)
	}
	var dists [][]int32
	var eccs []int
	for _, s := range sources {
		dists = append(dists, f.BFS(s))
		eccs = append(eccs, f.Eccentricity(s))
	}
	return map[string]uint64{
		"components":   digest(f.ConnectedComponents()),
		"giant":        digest(giant),
		"bfs":          digest(dists),
		"paths20":      digest(f.SamplePathStats(20, xrand.New(7))),
		"pathsExact":   digest(f.SamplePathStats(n, nil)),
		"ecc":          digest(eccs),
		"diameter5":    digest(f.EstimateDiameter(5, xrand.New(8))),
		"inducedGiant": frozenDigest(f.InducedFrozen(giant)),
		"inducedAsc":   frozenDigest(f.InducedFrozen(ascending)),
		"inducedPerm":  frozenDigest(f.InducedFrozen(shuffled)),
	}
}

// readPathGraphs are the topologies the digests are pinned on: two
// collision-heavy edge streams (isolates; loops and multi-edges), a
// connected PA tree under a hard cutoff, and a disconnected CM graph.
func readPathGraphs(t *testing.T) map[string]*graph.Frozen {
	t.Helper()
	fromStream := func(seed uint64, n, edges int) *graph.Frozen {
		g := graph.New(n)
		for _, e := range graph.RandomEdgeStream(seed, n, edges) {
			if err := g.AddEdge(int(e[0]), int(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		return g.Freeze()
	}
	pa, _, err := gen.PA(gen.PAConfig{N: 2000, M: 1, KC: 10}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cm, _, err := gen.CMFrozen(gen.CMConfig{N: 3000, M: 1, Gamma: 2.2}, gen.NewBuild(xrand.Phases{Seed: 12}, 1))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Frozen{
		"sparse": fromStream(42, 120, 150),
		"dense":  fromStream(99, 80, 400),
		"pa":     pa.Freeze(),
		"cm":     cm,
	}
}

// readPathDigests pins every read-only analysis's output bytes. The values
// were captured while Graph and Frozen each carried their own traversal
// code and agreed on all of them.
var readPathDigests = map[string]map[string]uint64{
	"sparse": {
		"components":   0x6f618ff1bfd3be49,
		"giant":        0xd0f212a3593ffa0f,
		"bfs":          0xe13ceccb4e014549,
		"paths20":      0x6a9067618c9bd59f,
		"pathsExact":   0x8fdb26d9c876b4c5,
		"ecc":          0x921ca726fb83a701,
		"diameter5":    0x7f89307b4ba0a57,
		"inducedGiant": 0x5c25f7d4dc5a41da,
		"inducedAsc":   0x49bed1ec6f2fea5b,
		"inducedPerm":  0x57937d61b760c6ca,
	},
	"dense": {
		"components":   0x98b07db7d863c443,
		"giant":        0x560a01ff25947889,
		"bfs":          0x2284c55370a31731,
		"paths20":      0x6fc0e442ffc15686,
		"pathsExact":   0x998d6a1a7ccce8cd,
		"ecc":          0xf34fc64efefda5aa,
		"diameter5":    0xaf63a94c860195e3,
		"inducedGiant": 0x99387dc10f92f2be,
		"inducedAsc":   0xbed0a368418ede2,
		"inducedPerm":  0xdb711e92008a1c31,
	},
	"pa": {
		"components":   0xa292561cc9938c0d,
		"giant":        0xc185a485eedcc18b,
		"bfs":          0x684b8e6302d7b8fe,
		"paths20":      0xa4958004cddfa1c6,
		"pathsExact":   0x87fd66768f557f79,
		"ecc":          0x15def3a446ed893a,
		"diameter5":    0x8030607b4c32245,
		"inducedGiant": 0x78cfbe0e3f425522,
		"inducedAsc":   0x70e17393c31a1835,
		"inducedPerm":  0xec151a99c6408420,
	},
	"cm": {
		"components":   0xfbbd8b101e4cc7ff,
		"giant":        0x4b4db5490f7ed6d9,
		"bfs":          0x8091e2fe73bef4ea,
		"paths20":      0x437ee57cd3da7de0,
		"pathsExact":   0x49b881934e30a810,
		"ecc":          0x5b6391205d46e7c8,
		"diameter5":    0x7f89507b4ba0dbd,
		"inducedGiant": 0x555381ce765f6877,
		"inducedAsc":   0xdd91b88c1a1cbabc,
		"inducedPerm":  0x2db5a1ac275a2e5f,
	},
}

// TestReadPathDigests pins the bytes of BFS, components, sampled and exact
// path statistics, eccentricity, the diameter estimate and induced
// snapshots, read through the Frozen snapshot.
func TestReadPathDigests(t *testing.T) {
	t.Parallel()
	for name, f := range readPathGraphs(t) {
		want := readPathDigests[name]
		got := readDigests(f)
		if len(got) != len(want) {
			t.Errorf("%s: %d digests, want all %d", name, len(got), len(want))
		}
		for key, d := range got {
			if d != want[key] {
				t.Errorf("%s: %s digest %#x, want %#x", name, key, d, want[key])
			}
		}
	}
}
