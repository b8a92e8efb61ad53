package graph_test

// The membership and freeze benchmarks live in the external test package
// because the hub-hub case needs a generator, and gen imports graph.

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// benchGraph is a PA-like random graph at a size where cache effects show.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	rng := xrand.New(7)
	const n = 200000
	g := graph.New(n)
	for u := 1; u < n; u++ {
		// Two edges per node to earlier nodes: power-law-ish, connected.
		for k := 0; k < 2; k++ {
			if err := g.AddEdge(u, rng.Intn(u)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return g
}

var hasEdgeSink bool

// BenchmarkHasEdgeGraph measures the mutable graph's membership test, a
// scan of the shorter adjacency row. random-pairs is the common case (at
// least one low-degree endpoint); hub-hub probes the two largest hubs of a
// no-cutoff HAPA graph, both of degree O(N) — the one shape where the scan
// is long, and the reason read-heavy code uses Frozen.HasEdge instead.
func BenchmarkHasEdgeGraph(b *testing.B) {
	b.Run("random-pairs", func(b *testing.B) {
		g := benchGraph(b)
		rng := xrand.New(8)
		n := g.N()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hasEdgeSink = g.HasEdge(rng.Intn(n), rng.Intn(n))
		}
	})
	b.Run("hub-hub", func(b *testing.B) {
		g, _, err := gen.HAPA(gen.HAPAConfig{N: 20000, M: 2}, xrand.New(7))
		if err != nil {
			b.Fatal(err)
		}
		h1, h2 := -1, -1 // the two highest-degree nodes
		for u := 0; u < g.N(); u++ {
			switch d := g.Degree(u); {
			case d > g.Degree(h1):
				h1, h2 = u, h1
			case d > g.Degree(h2):
				h2 = u
			}
		}
		// The hubs are seed-clique neighbors, found at the head of the
		// row; drop that link so the probe is a miss and walks all of it.
		g.RemoveEdge(h1, h2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hasEdgeSink = g.HasEdge(h1, h2)
		}
		b.ReportMetric(float64(g.Degree(h2)), "scanned-entries")
	})
}

// BenchmarkHasEdgeCSR measures the frozen read path: binary search over
// the smaller endpoint's sorted CSR range.
func BenchmarkHasEdgeCSR(b *testing.B) {
	f := benchGraph(b).Freeze()
	rng := xrand.New(8)
	n := f.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hasEdgeSink = f.HasEdge(rng.Intn(n), rng.Intn(n))
	}
}

// BenchmarkFreeze tracks the one-time snapshot cost itself.
func BenchmarkFreeze(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := g.Freeze(); f.N() != g.N() {
			b.Fatal("bad freeze")
		}
	}
}
