package sim

import (
	"reflect"
	"runtime"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// runJob runs one engine job — build(r), then sweep(r) unless sweep is nil
// — strictly, as a batch of one on the lane pool.
func runJob[T any](sc Scale, seed uint64, build func(r int, b *builder) (T, error), sweep func(r int, v T, sw *sweeper) error) error {
	return runPool(sc, engineJob[T]{seed: seed, build: build, sweep: sweep})
}

// buildOnly runs fn as the build of a strict engine with a nil sweep: the
// build-only shape degree, churn and robustness specs run in.
func buildOnly(sc Scale, seed uint64, fn func(r int, b *builder) error) error {
	return runJob(sc, seed, func(r int, b *builder) (struct{}, error) {
		return struct{}{}, fn(r, b)
	}, nil)
}

// TestPipelineSchedule pins how the engine splits a budget of P over n
// realizations into (lanes, width): lanes = min(P, n) build and sweep
// lanes, each realization's generator and source sweep width
// ceil(P / lanes).
func TestPipelineSchedule(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ p, n, lanes, width int }{
		{1, 1, 1, 1}, {1, 2, 1, 1}, {1, 3, 1, 1}, {1, 10, 1, 1},
		{2, 1, 1, 2}, {2, 2, 2, 1}, {2, 3, 2, 1}, {2, 10, 2, 1},
		{3, 1, 1, 3}, {3, 2, 2, 2}, {3, 3, 3, 1}, {3, 10, 3, 1},
		{8, 1, 1, 8}, {8, 2, 2, 4}, {8, 3, 3, 3}, {8, 10, 8, 1},
	} {
		if lanes, width := schedule(tc.p, tc.n); lanes != tc.lanes || width != tc.width {
			t.Errorf("schedule(%d, %d) = (%d, %d), want (%d, %d)", tc.p, tc.n, lanes, width, tc.lanes, tc.width)
		}
	}
	// The default budget is GOMAXPROCS.
	p := runtime.GOMAXPROCS(0)
	if lanes, width := schedule(0, 1); lanes != 1 || width != p {
		t.Errorf("schedule(0, 1) = (%d, %d), want (1, %d)", lanes, width, p)
	}
}

// TestWorkersDeterminismParallelGenerators exercises the generators with
// real intra-build parallelism — chunked CM degree sampling, GRN
// placement/radius queries, and DAPA's batched horizon floods — through
// the degree-distribution engine, pinning byte-identical distributions
// for intra-build widths 1, 2 and 4 (budgets 1, 4 and 8 over tinyScale's
// two realizations).
func TestWorkersDeterminismParallelGenerators(t *testing.T) {
	t.Parallel()
	run := func(workers int) [2]interface{} {
		s := tinyScale
		s.Workers = workers
		subs, err := makeSubstrates(s.NSubstrate, s, 0xf00d)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := mergedDegreeDist("cm", cmTopo(s.NDegree, 2, 40, 2.5), s, 77)
		if err != nil {
			t.Fatal(err)
		}
		dapa, err := mergedDegreeDist("dapa", dapaTopo(subs, s.NOverlay, 2, 40, 6), s, 78)
		if err != nil {
			t.Fatal(err)
		}
		return [2]interface{}{cm, dapa}
	}
	want := run(1)
	for _, p := range []int{4, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("CM/DAPA degree distributions differ between Workers=1 and Workers=%d", p)
		}
	}
}

// TestBuilderContract pins what a builder carries: the legacy stream is
// the r-th split of the root (the contract every engine since PR 1 kept),
// and the phase derivation root is exactly (seed, r).
func TestBuilderContract(t *testing.T) {
	t.Parallel()
	const n, seed = 6, 42
	root := xrand.New(seed)
	wantRNG := make([]uint64, n)
	for r, s := range root.SplitN(n) {
		wantRNG[r] = s.Uint64()
	}
	err := buildOnly(Scale{Workers: 8, Realizations: n}, seed, func(r int, b *builder) error {
		if got := b.rng.Uint64(); got != wantRNG[r] {
			t.Errorf("realization %d legacy stream is not the r-th root split", r)
		}
		want := xrand.Phases{Seed: seed, Realization: uint64(r)}
		if b.phases != want {
			t.Errorf("realization %d phases = %+v, want %+v", r, b.phases, want)
		}
		if b.width < 1 {
			t.Errorf("realization %d width = %d, want >= 1", r, b.width)
		}
		// The gen context must carry the phase root through.
		if b.gen().Phases != want {
			t.Errorf("realization %d gen build context lost the phase root", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepShardsRaceLazyMembership checks that a snapshot's membership
// ranges, which no factory builds, are built correctly by whichever sweep
// shard probes HasEdge first while the other shards race it (run under
// -race in CI).
func TestSweepShardsRaceLazyMembership(t *testing.T) {
	t.Parallel()
	err := runJob(Scale{Workers: 8, Realizations: 2}, 9,
		paTopo(300, 2, gen.NoCutoff),
		func(r int, f *graph.Frozen, sw *sweeper) error {
			// Cross-check membership against the insertion-order adjacency.
			return sw.Sources(uint64(r), f.N(), func(_, u int, _ *xrand.RNG, _ *search.Scratch) error {
				for _, v := range f.Neighbors(u) {
					if !f.HasEdge(u, int(v)) {
						t.Errorf("r=%d: HasEdge(%d,%d) = false for a real edge", r, u, v)
					}
				}
				return nil
			})
		})
	if err != nil {
		t.Fatal(err)
	}
}
