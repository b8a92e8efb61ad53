package des

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// Kernel benchmarks: the DES message-level flood and k-walk on a 10k-node
// PA overlay, next to the CSR Scratch flood on the same topology — the
// measured price of the event queue and per-edge latency derivation over
// the pure traversal. All DES variants must report 0 allocs/op: the Sim
// arena, pooled queues, and the allocation-free ChunkRoot latency path are
// the point.

func benchTopo(b *testing.B, kc int) *graph.Frozen {
	b.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: 10_000, M: 2, KC: kc}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return g.Freeze()
}

// BenchmarkDESFlood's spec-* cases are the shape the desflood spec (and
// the repo benchmark's des-flood workload) runs: PA without a cutoff,
// τ = 30, latency 1 + U[0,1), loss 0 and 10 %. The unprefixed cases are
// the KC = 40, τ = 10 shape the BENCH_PR6/7 snapshots timed, names kept
// (`git show 04c8318:BENCH_PR6.json`, likewise BENCH_PR7.json).
// base0-jitter2 is what `-latency-jitter 2` alone runs (Base 0, U[0,2)):
// runs are narrower than a hop, so copies land in the run being
// consumed. tiny-jitter (Base 1, Jitter 1e-9) packs each hop's arrivals
// into a span of nanoseconds, which buckets of a fixed width would sort
// as one.
// "pushes" next to "msgs" is the queue traffic per flood: of ≈ 3N copies
// sent, send-time duplicate resolution queues only those that become
// their receiver's pending copy (≈ 1.1N).
func BenchmarkDESFlood(b *testing.B) {
	lat := Latency{Base: 1, Jitter: 1, Phases: xrand.Phases{Seed: 2}}
	cases := []struct {
		name string
		kc   int
		cfg  Config
	}{
		{"spec-jitter", gen.NoCutoff, Config{MaxTTL: 30, Latency: lat}},
		{"spec-jitter-loss", gen.NoCutoff, Config{MaxTTL: 30, Latency: lat, Loss: 0.1}},
		{"zero-latency", 40, Config{MaxTTL: 10}},
		{"jitter", 40, Config{MaxTTL: 10, Latency: lat}},
		{"jitter-loss", 40, Config{MaxTTL: 10, Latency: lat, Loss: 0.05}},
		{"base0-jitter2", gen.NoCutoff, Config{MaxTTL: 30, Latency: Latency{Jitter: 2, Phases: lat.Phases}}},
		{"tiny-jitter", gen.NoCutoff, Config{MaxTTL: 30, Latency: Latency{Base: 1, Jitter: 1e-9, Phases: lat.Phases}}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			f := benchTopo(b, c.kc)
			sim := NewSim(f.N())
			rng := xrand.New(3)
			var sent, pushes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := sim.Flood(f, rng.Intn(f.N()), c.cfg, rng)
				if err != nil {
					b.Fatal(err)
				}
				sent += m.Sent
				pushes += sim.pushes
			}
			b.ReportMetric(float64(sent)/float64(b.N), "msgs")
			b.ReportMetric(float64(pushes)/float64(b.N), "pushes")
		})
	}
}

func BenchmarkDESKWalk(b *testing.B) {
	f := benchTopo(b, 40)
	cfg := Config{Latency: Latency{Base: 1, Jitter: 1, Phases: xrand.Phases{Seed: 2}}}
	sim := NewSim(f.N())
	rng := xrand.New(4)
	var hits int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.KWalk(f, rng.Intn(f.N()), 16, 200, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		hits = m.Hits
	}
	b.ReportMetric(float64(hits), "hits")
}

// BenchmarkCSRFloodBaseline is the same flood through search.Scratch, for
// a side-by-side read in one bench run.
func BenchmarkCSRFloodBaseline(b *testing.B) {
	f := benchTopo(b, 40)
	scratch := search.NewScratch(f.N())
	rng := xrand.New(3)
	var sent int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scratch.Flood(f, rng.Intn(f.N()), 10)
		if err != nil {
			b.Fatal(err)
		}
		sent = res.MessagesAt(10)
	}
	b.ReportMetric(float64(sent), "msgs")
}
