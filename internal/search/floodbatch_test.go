package search

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// batchTopo is one topology of the FloodBatch equivalence matrix.
type batchTopo struct {
	name string
	f    *graph.Frozen
}

// batchTopos builds the matrix once: CM across the fig7 parameter grid
// (m=1 fragments into many components, m=3 is connected), PA, a raw
// multigraph snapshot, and a graph that is mostly isolated nodes.
var batchTopos = sync.OnceValue(func() []batchTopo {
	var out []batchTopo
	for _, gamma := range []float64{2.2, 3.0} {
		for _, m := range []int{1, 2, 3} {
			for _, kc := range []int{10, 40, gen.NoCutoff} {
				cfg := gen.CMConfig{N: 600, M: m, KC: kc, Gamma: gamma}
				f, _, err := gen.CMFrozen(cfg, gen.NewBuild(xrand.Phases{Seed: uint64(100*m + kc)}, 1))
				if err != nil {
					panic(err)
				}
				out = append(out, batchTopo{fmt.Sprintf("cm/g%.1f/m%d/kc%d", gamma, m, kc), f})
			}
		}
	}
	pa, _, err := gen.PA(gen.PAConfig{N: 900, M: 2, KC: 20}, xrand.New(5))
	if err != nil {
		panic(err)
	}
	out = append(out, batchTopo{"pa", pa.Freeze()})

	// Not simplified: self-loops and parallel edges stay in the rows, so a
	// frontier node can offer the same neighbor, or itself, more than once.
	multi := graph.New(40)
	rng := xrand.New(77)
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if i%10 == 0 {
			v = u
		}
		if err := multi.AddEdge(u, v); err != nil {
			panic(err)
		}
		if i%7 == 0 {
			if err := multi.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	out = append(out, batchTopo{"multigraph", multi.Freeze()})

	sparse := graph.New(50)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {10, 11}, {30, 31}, {31, 32}} {
		if err := sparse.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	out = append(out, batchTopo{"isolated", sparse.Freeze()})
	return out
})

// checkBatch compares one FloodBatch call's hits against per-source Flood
// on a separate scratch, and holds it to carrying no messages.
func checkBatch(t *testing.T, name string, batch, single *Scratch, f *graph.Frozen, srcs []int, maxTTL int) {
	t.Helper()
	got, err := batch.FloodBatch(f, srcs, maxTTL)
	if err != nil {
		t.Fatalf("%s: FloodBatch: %v", name, err)
	}
	if len(got) != len(srcs) {
		t.Fatalf("%s: %d results for %d sources", name, len(got), len(srcs))
	}
	for i, src := range srcs {
		want, err := single.Flood(f, src, maxTTL)
		if err != nil {
			t.Fatalf("%s: Flood(%d): %v", name, src, err)
		}
		if !slices.Equal(got[i].Hits, want.Hits) || got[i].Messages != nil {
			t.Fatalf("%s src[%d]=%d ttl=%d: hits %v messages %v, want hits %v and no messages", name, i, src, maxTTL, got[i].Hits, got[i].Messages, want.Hits)
		}
	}
}

// TestFloodBatchMatchesFlood is the kernel's contract: every Hits[t] of
// every source equals Scratch.Flood's, for every width and TTL, with one
// Scratch carried across all topologies (different N, so stale bit state
// from a larger graph would show).
func TestFloodBatchMatchesFlood(t *testing.T) {
	t.Parallel()
	batch, single := NewScratch(0), NewScratch(0)
	rng := xrand.New(2007)
	for _, tp := range batchTopos() {
		n := tp.f.N()
		for _, k := range []int{1, 2, 63, 64} {
			for _, ttl := range []int{0, 1, 3, 30} {
				srcs := make([]int, k)
				for i := range srcs {
					srcs[i] = rng.Intn(n)
				}
				if k > 1 {
					srcs[k-1] = srcs[0] // two equal sources in one batch
				}
				checkBatch(t, fmt.Sprintf("%s k=%d", tp.name, k), batch, single, tp.f, srcs, ttl)
			}
		}
	}
	// Every node of the isolated-nodes graph, isolated ones included.
	for _, tp := range batchTopos() {
		if tp.name != "isolated" {
			continue
		}
		srcs := make([]int, tp.f.N())
		for i := range srcs {
			srcs[i] = i
		}
		checkBatch(t, "isolated all", batch, single, tp.f, srcs, 5)
	}
	if res, err := batch.FloodBatch(batchTopos()[0].f, nil, 4); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(res))
	}

	// The level modes. Each case states which modes its call must run and
	// the kernel's per-call counters hold it to that.
	wantModes := func(name string, dense, thin bool) {
		t.Helper()
		if b := batch.batch; (b.dense > 0) != dense || (b.thin > 0) != thin {
			t.Fatalf("%s: ran %d dense and %d thin levels, want dense=%v thin=%v", name, b.dense, b.thin, dense, thin)
		}
	}
	edges := func(g *graph.Graph, es ...[2]int) *graph.Frozen {
		for _, e := range es {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g.Freeze()
	}

	// A lollipop, K40 on nodes 0..39 glued to the path 39..339: three
	// sources make a thin first level, the clique a dense second one, and
	// the path a thin tail of 300 levels.
	var lolli [][2]int
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			lolli = append(lolli, [2]int{u, v})
		}
	}
	for u := 39; u < 339; u++ {
		lolli = append(lolli, [2]int{u, u + 1})
	}
	checkBatch(t, "lollipop", batch, single, edges(graph.New(340), lolli...), []int{339, 39, 7}, 320)
	wantModes("lollipop", true, true)

	topo := func(name string) *graph.Frozen {
		for _, tp := range batchTopos() {
			if tp.name == name {
				return tp.f
			}
		}
		t.Fatalf("no topology %q in the matrix", name)
		return nil
	}

	// maxTTL stops a call inside its dense levels, leaving a frontier in
	// visit; the same scratch then serves a smaller graph at width 1.
	cut := topo("cm/g2.2/m3/kc40")
	srcs := make([]int, MaxBatch)
	for i := range srcs {
		srcs[i] = rng.Intn(cut.N())
	}
	checkBatch(t, "cut dense", batch, single, cut, srcs, 2)
	wantModes("cut dense", true, false)
	checkBatch(t, "after cut", batch, single, topo("multigraph"), []int{3}, 30)

	// Duplicate and isolated sources in a frontier wide enough to start
	// dense: every node of the isolated-nodes graph, the first 14 twice
	// (the last level, two path ends finding each other, is thin).
	iso := topo("isolated")
	for i := range srcs {
		srcs[i] = i % iso.N()
	}
	checkBatch(t, "isolated dense", batch, single, iso, srcs, 5)
	wantModes("isolated dense", true, true)

	// A star whose hub has degree 70 000: one level counts 70 000 nodes per
	// source, past 16 bits and across 275 lane flushes.
	var star [][2]int
	for v := 1; v <= 70_000; v++ {
		star = append(star, [2]int{0, v})
	}
	checkBatch(t, "star", batch, single, edges(graph.New(70_001), star...), []int{5, 0, 70_000, 5}, 4)
	wantModes("star", true, true)
}

// TestFloodBatchLaneFlush: a level's hits are counted in byte lanes that
// are flushed every laneFlush found nodes, so on a star K₁,L a batch at the
// hub finds L nodes per source in one level — one byte short of, at and
// past each flush boundary — and a batch of hub and leaf sources splits a
// level between sources that find L nodes and sources that find one.
func TestFloodBatchLaneFlush(t *testing.T) {
	t.Parallel()
	batch, single := NewScratch(0), NewScratch(0)
	for _, leaves := range []int{254, 255, 256, 509, 510, 511} {
		g := graph.New(leaves + 1)
		for v := 1; v <= leaves; v++ {
			if err := g.AddEdge(0, v); err != nil {
				t.Fatal(err)
			}
		}
		star := g.Freeze()
		hub, mixed := make([]int, MaxBatch), make([]int, MaxBatch)
		for i := range mixed {
			if i%2 == 1 {
				mixed[i] = i
			}
		}
		checkBatch(t, fmt.Sprintf("K1,%d hub", leaves), batch, single, star, hub, 3)
		checkBatch(t, fmt.Sprintf("K1,%d mixed", leaves), batch, single, star, mixed, 3)
	}
}

// TestFloodBatchErrors pins that a bad source or TTL yields Flood's error,
// and that an over-wide batch is refused.
func TestFloodBatchErrors(t *testing.T) {
	t.Parallel()
	f := batchTopos()[0].f
	s := NewScratch(0)
	for _, tc := range []struct {
		name   string
		srcs   []int
		maxTTL int
		want   error
	}{
		{"source past end", []int{3, f.N(), 5}, 4, ErrBadSource},
		{"negative source", []int{3, -1}, 4, ErrBadSource},
		{"negative ttl", []int{3, 4}, -1, ErrBadTTL},
	} {
		_, err := s.FloodBatch(f, tc.srcs, tc.maxTTL)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: FloodBatch error %v, want %v", tc.name, err, tc.want)
		}
		var bad int
		for _, src := range tc.srcs {
			if validate(f, src, tc.maxTTL) != nil {
				bad = src
				break
			}
		}
		_, ferr := s.Flood(f, bad, tc.maxTTL)
		if ferr == nil || ferr.Error() != err.Error() {
			t.Fatalf("%s: FloodBatch error %q, Flood error %q", tc.name, err, ferr)
		}
	}
	if _, err := s.FloodBatch(f, make([]int, MaxBatch+1), 4); err == nil {
		t.Fatalf("batch of %d sources accepted", MaxBatch+1)
	}
	// A refused call must not poison the scratch.
	checkBatch(t, "after errors", s, NewScratch(0), f, []int{1, 2, 3}, 6)
}

func TestFloodBatchZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	srcs := make([]int, MaxBatch)
	for i := range srcs {
		srcs[i] = (i * 37) % f.N()
	}
	if _, err := s.FloodBatch(f, srcs, 30); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.FloodBatch(f, srcs, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FloodBatch with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

// FuzzFloodBatchMatchesFlood drives the same comparison from arbitrary
// edge lists, source sets and TTLs: the edge bytes build a raw multigraph
// (loops and parallel edges kept), the source bytes pick up to 64 sources.
func FuzzFloodBatchMatchesFlood(f *testing.F) {
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 5, 5, 7, 8, 7, 8}, []byte{0, 5, 7, 11, 0}, uint8(4))
	f.Add(uint8(1), []byte{}, []byte{0}, uint8(0))
	f.Add(uint8(40), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 20, 21}, []byte{0, 6, 20, 39}, uint8(30))
	f.Fuzz(func(t *testing.T, nodes uint8, edges, sources []byte, ttl uint8) {
		n := int(nodes)%64 + 1
		g := graph.New(n)
		for i := 0; i+1 < len(edges); i += 2 {
			if err := g.AddEdge(int(edges[i])%n, int(edges[i+1])%n); err != nil {
				t.Fatal(err)
			}
		}
		if len(sources) > MaxBatch {
			sources = sources[:MaxBatch]
		}
		srcs := make([]int, len(sources))
		for i, b := range sources {
			srcs[i] = int(b) % n
		}
		checkBatch(t, "fuzz", NewScratch(0), NewScratch(0), g.Freeze(), srcs, int(ttl)%40)
	})
}

// cmGrid builds, once, fig7's m ∈ {1,2,3} × kc ∈ {10,40,none} CM grid at
// n nodes for each γ.
func cmGrid(n int, gammas ...float64) func() []*graph.Frozen {
	return sync.OnceValue(func() []*graph.Frozen {
		var out []*graph.Frozen
		for _, gamma := range gammas {
			for _, m := range []int{1, 2, 3} {
				for _, kc := range []int{10, 40, gen.NoCutoff} {
					cfg := gen.CMConfig{N: n, M: m, KC: kc, Gamma: gamma}
					f, _, err := gen.CMFrozen(cfg, gen.NewBuild(xrand.Phases{Seed: uint64(1000*m + kc)}, 1))
					if err != nil {
						panic(err)
					}
					out = append(out, f)
				}
			}
		}
		return out
	})
}

// floodSweepTopos is the sweep-cm shape: 18 fig7 CM topologies at
// N=20 000. floodRecordsTopos is the records-* shape: the whole fig7 grid
// at N=400, where a 64-source flood covers most of a topology within τ 20.
var (
	floodSweepTopos   = cmGrid(20_000, 2.2, 3.0)
	floodRecordsTopos = cmGrid(400, 2.2, 2.6, 3.0)
)

// floodLongTopos is the shape the dense level can hurt: four fig8-style DAPA
// overlays (N_O = 10⁴ on a 2·10⁴ GRN, kc 10) whose short substrate horizon
// gives them a long diameter, so a flood runs ~90 levels that each hold a
// small share of the nodes.
var floodLongTopos = sync.OnceValue(func() []*graph.Frozen {
	frozen, _, err := gen.GRNFrozen(gen.GRNConfig{N: 20_000, MeanDegree: 10}, gen.NewBuild(xrand.Phases{Seed: 3}, 1))
	if err != nil {
		panic(err)
	}
	var out []*graph.Frozen
	for _, tauSub := range []int{2, 4} {
		for _, m := range []int{1, 2} {
			cfg := gen.DAPAConfig{NOverlay: 10_000, M: m, KC: 10, TauSub: tauSub}
			ov, _, err := gen.DAPABuild(frozen, cfg, gen.NewBuild(xrand.Phases{Seed: uint64(10*tauSub + m)}, 1))
			if err != nil {
				panic(err)
			}
			out = append(out, ov.G.Freeze())
		}
	}
	return out
})

var floodSweepSink int

// BenchmarkFloodSweep measures one source sweep per topology at the batch
// widths the registry's source counts produce, against the per-source
// queue kernel. One iteration floods the same sources (as many whole
// batches as fit in MaxBatch) on each topology of a set; the figure to
// compare is µs/source. The CM set at τ 30 is where dense levels pay; the
// long-diameter set at τ 90 is where they would cost without the thin-level
// mode, so the rule that picks between them is pinned on both. The records
// set at τ 20 is the small-topology sweep of the records-* workloads.
func BenchmarkFloodSweep(b *testing.B) {
	run := func(name string, topos func() []*graph.Frozen, maxTTL, k int, flood func(s *Scratch, f *graph.Frozen, srcs []int, maxTTL int) (Result, error)) {
		b.Run(name, func(b *testing.B) {
			topos := topos()
			rng := xrand.New(11)
			swept := make([]int, MaxBatch/k*k)
			for i := range swept {
				swept[i] = rng.Intn(topos[0].N())
			}
			s := NewScratch(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range topos {
					for lo := 0; lo < len(swept); lo += k {
						res, err := flood(s, f, swept[lo:lo+k], maxTTL)
						if err != nil {
							b.Fatal(err)
						}
						floodSweepSink += res.Hits[maxTTL]
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(topos)*len(swept)), "µs/source")
		})
	}
	batch := func(s *Scratch, f *graph.Frozen, srcs []int, maxTTL int) (Result, error) {
		res, err := s.FloodBatch(f, srcs, maxTTL)
		if err != nil {
			return Result{}, err
		}
		return res[0], nil
	}
	run("single", floodSweepTopos, 30, 1, func(s *Scratch, f *graph.Frozen, srcs []int, maxTTL int) (Result, error) {
		return s.Flood(f, srcs[0], maxTTL)
	})
	for _, k := range []int{1, 12, 20, 50, 64} {
		run(fmt.Sprintf("k=%d", k), floodSweepTopos, 30, k, batch)
	}
	for _, k := range []int{12, 50} {
		run(fmt.Sprintf("long/k=%d", k), floodLongTopos, 90, k, batch)
	}
	run("records/k=64", floodRecordsTopos, 20, 64, batch)
}
