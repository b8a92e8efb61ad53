package metrics

// Before/after benchmarks for the CSR migration of the clustering
// coefficient, the worst membership-probe offender in the package (O(Σ
// deg²) HasEdge calls). referenceGlobalClustering preserves the pre-CSR
// implementation — per-node map dedupe plus a mutable-Graph HasEdge per
// neighbor pair (an edge-map probe when BENCH_PR2.json recorded the
// speedup, a scan of the shorter row since the map was removed; read it
// with `git show 04c8318:BENCH_PR2.json`).

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// referenceDistinctNeighbors is the historical map-based neighbor dedupe.
func referenceDistinctNeighbors(g *graph.Graph, u int) []int32 {
	raw := g.Neighbors(u)
	if len(raw) == 0 {
		return nil
	}
	seen := make(map[int32]bool, len(raw))
	out := make([]int32, 0, len(raw))
	for _, v := range raw {
		if int(v) == u || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// referenceGlobalClustering is the historical transitivity computation on
// the mutable Graph (one HasEdge per neighbor pair).
func referenceGlobalClustering(g *graph.Graph) float64 {
	n := g.N()
	triangles := 0
	triples := 0
	for u := 0; u < n; u++ {
		nbs := referenceDistinctNeighbors(g, u)
		d := len(nbs)
		triples += d * (d - 1) / 2
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(int(nbs[i]), int(nbs[j])) {
					triangles++
				}
			}
		}
	}
	if triples == 0 {
		return 0
	}
	return float64(triangles) / float64(triples)
}

func clusteringBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: 10000, M: 3, KC: 100}, xrand.New(17))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// TestReferenceClusteringAgrees keeps the benchmark baseline honest: both
// implementations must report the same coefficient.
func TestReferenceClusteringAgrees(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 3000, M: 3, KC: 100}, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	want := referenceGlobalClustering(g)
	got := GlobalClustering(g.Freeze())
	if want != got {
		t.Fatalf("clustering diverges: reference %.12f, CSR %.12f", want, got)
	}
}

// BenchmarkClusteringReference is the pre-CSR clustering (Graph.HasEdge probes).
func BenchmarkClusteringReference(b *testing.B) {
	g := clusteringBenchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := referenceGlobalClustering(g); c <= 0 {
			b.Fatal("degenerate clustering")
		}
	}
}

// BenchmarkClusteringCSR is the frozen clustering (sorted-range binary
// search), including nothing but the computation — the one-time Freeze is
// outside the loop, as in real use.
func BenchmarkClusteringCSR(b *testing.B) {
	f := clusteringBenchGraph(b).Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := GlobalClustering(f); c <= 0 {
			b.Fatal("degenerate clustering")
		}
	}
}
