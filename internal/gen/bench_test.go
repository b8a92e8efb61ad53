package gen

import (
	"fmt"
	"testing"

	"scalefree/internal/graph"
)

// Build-path benchmarks: CM and GRN built straight into a snapshot (CM's
// stub pairs scattered where they lie, GRN's chunked edge buffers laid
// out by count/scatter), at the scales the experiment engine builds per
// realization. The *CSR variants allocate every buffer afresh; the
// *Arena variants reuse one CSRArena across iterations, which is exactly
// how a pipeline build worker runs back-to-back realizations.

// Paper scale for degree figures (Scale.NDegree) and substrates
// (Scale.NSubstrate).
const (
	benchCMNodes  = 100_000
	benchGRNNodes = 20_000
)

// reportSnapshotBytes emits the size of the immortal result (the CSR
// arrays, plus any coordinate payload) as a custom metric. Every build
// path must allocate at least this much per iteration — it escapes with
// the snapshot — so B/op minus snapshotB/op is the transient allocation
// traffic of a build: what the arena variants eliminate.
func reportSnapshotBytes(b *testing.B, f *graph.Frozen, extra int) {
	bytes := 4*(f.N()+1) + 4*f.TotalDegree() + extra
	b.ReportMetric(float64(bytes), "snapshotB/op")
}

func benchCMConfig() CMConfig { return CMConfig{N: benchCMNodes, M: 2, Gamma: 2.2} }

func BenchmarkCMBuildCSR(b *testing.B) {
	cfg := benchCMConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _, err := CMFrozen(cfg, NewBuild(phasesFor(1, uint64(i)), 1))
		if err != nil {
			b.Fatal(err)
		}
		sinkFrozen = f
	}
	reportSnapshotBytes(b, sinkFrozen, 0)
}

func BenchmarkCMBuildCSRArena(b *testing.B) {
	cfg := benchCMConfig()
	arena := graph.NewCSRArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := NewBuild(phasesFor(1, uint64(i)), 1)
		bld.Arena = arena
		f, _, err := CMFrozen(cfg, bld)
		if err != nil {
			b.Fatal(err)
		}
		sinkFrozen = f
	}
	reportSnapshotBytes(b, sinkFrozen, 0)
}

// BenchmarkCMFrozen times CMFrozen where the cleanup costs most: γ = 2.2
// with no cutoff, whose hubs hold most of the self-loops and multi-edges
// the replay deletes, at the sweep-cm size (N = 2·10⁴) and the paper's
// degree-figure size (N = 10⁵). Each build runs on one arena and refills
// the snapshot the previous one returned, as a lane does; deleted/op is
// the self-loops plus multi-edges removed per build.
func BenchmarkCMFrozen(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := CMConfig{N: n, M: 2, KC: NoCutoff, Gamma: 2.2}
			arena := graph.NewCSRArena()
			var last *graph.Frozen
			deleted := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Recycle(last)
				f, st, err := CMFrozen(cfg, Build{Phases: phasesFor(1, uint64(i)), Workers: 1, Arena: arena})
				if err != nil {
					b.Fatal(err)
				}
				deleted += st.SelfLoopsRemoved + st.MultiEdgesRemoved
				last = f
			}
			sinkFrozen = last
			b.ReportMetric(float64(deleted)/float64(b.N), "deleted/op")
		})
	}
}

func BenchmarkGRNBuildCSR(b *testing.B) {
	cfg := GRNConfig{N: benchGRNNodes, MeanDegree: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _, err := GRNFrozen(cfg, NewBuild(phasesFor(2, uint64(i)), 1))
		if err != nil {
			b.Fatal(err)
		}
		sinkFrozen = f
	}
	reportSnapshotBytes(b, sinkFrozen, 16*benchGRNNodes)
}

func BenchmarkGRNBuildCSRArena(b *testing.B) {
	cfg := GRNConfig{N: benchGRNNodes, MeanDegree: 10}
	arena := graph.NewCSRArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := NewBuild(phasesFor(2, uint64(i)), 1)
		bld.Arena = arena
		f, _, err := GRNFrozen(cfg, bld)
		if err != nil {
			b.Fatal(err)
		}
		sinkFrozen = f
	}
	reportSnapshotBytes(b, sinkFrozen, 16*benchGRNNodes)
}

// BenchmarkHAPABuild times HAPA's hop walk at the grow-hapa workload's
// size (N=850) for fig9's m = 1, 2 and 3, under a tight cutoff, a loose
// one and none. Almost every attempt is rejected, so the cost is per hop:
// hops/op is the walk length of one build and ns/hop the loop's cost per
// stop. Every build grows in one arena's graph, as a build lane's do.
func BenchmarkHAPABuild(b *testing.B) {
	for _, m := range []int{1, 2, 3} {
		for _, kc := range []int{10, 50, NoCutoff} {
			name := fmt.Sprintf("m=%d/kc=%d", m, kc)
			if kc == NoCutoff {
				name = fmt.Sprintf("m=%d/kc=none", m)
			}
			b.Run(name, func(b *testing.B) {
				cfg := HAPAConfig{N: 850, M: m, KC: kc}
				arena := graph.NewCSRArena()
				b.ReportAllocs()
				hops := 0
				for i := 0; i < b.N; i++ {
					g, st, err := HAPABuild(cfg, Build{Phases: phasesFor(3, uint64(i)), Workers: 1, Arena: arena})
					if err != nil {
						b.Fatal(err)
					}
					sinkGraph = g
					hops += st.Hops
				}
				b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
				if hops > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
				}
			})
		}
	}
}

// BenchmarkDAPABuild times DAPA's overlay growth at the grow-dapa
// workload's size (an N_S = 1600 GRN substrate, N_O = 800, m = 2,
// kc = 50) for fig8's short, middle and long discovery horizons, every
// build on one arena as a build lane's are: allocs/op is what a warm
// lane's build still allocates, and queries/op the horizon floods one
// build runs.
func BenchmarkDAPABuild(b *testing.B) {
	sub, _, err := GRNFrozen(GRNConfig{N: 1600, MeanDegree: 10}, NewBuild(phasesFor(4, 0), 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []int{2, 10, 50} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			cfg := DAPAConfig{NOverlay: 800, M: 2, KC: 50, TauSub: tau}
			arena := graph.NewCSRArena()
			b.ReportAllocs()
			queries := 0
			for i := 0; i < b.N; i++ {
				ov, st, err := DAPABuild(sub, cfg, Build{Phases: phasesFor(5, uint64(i)), Workers: 1, Arena: arena})
				if err != nil {
					b.Fatal(err)
				}
				sinkGraph = ov.G
				queries += st.HorizonQueries
			}
			b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
		})
	}
}

// sinkFrozen and sinkGraph keep the built topologies observable so the
// compiler cannot elide a build.
var (
	sinkFrozen *graph.Frozen
	sinkGraph  *graph.Graph
)
