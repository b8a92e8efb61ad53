package sim

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// TestGenWorkersBitForBitDeterminism is the golden-seed regression for the
// pipelined build stage: a representative search spec must produce
// byte-identical Figures for every GenWorkers value crossed with the
// (Workers, SourceShards) grid PR 3 pinned. Fig6 covers the PA and HAPA
// generators plus the flooding kernel across 18 series.
func TestGenWorkersBitForBitDeterminism(t *testing.T) {
	t.Parallel()
	run := func(workers, shards, genWorkers int) []Figure {
		sc := tinyScale
		sc.Workers = workers
		sc.SourceShards = shards
		sc.GenWorkers = genWorkers
		figs, err := Fig6(sc, 2007)
		if err != nil {
			t.Fatalf("workers=%d shards=%d gen=%d: %v", workers, shards, genWorkers, err)
		}
		return figs
	}
	want := run(1, 1, 1)
	for _, tc := range []struct{ workers, shards, genWorkers int }{
		{1, 1, 2}, {1, 1, 4}, {2, 3, 2}, {8, 8, 4}, {1, 8, 4}, {0, 0, 0},
	} {
		if got := run(tc.workers, tc.shards, tc.genWorkers); !reflect.DeepEqual(want, got) {
			t.Fatalf("Fig6 output differs between (1,1,1) and (Workers=%d, SourceShards=%d, GenWorkers=%d)",
				tc.workers, tc.shards, tc.genWorkers)
		}
	}
}

// TestGenWorkersDeterminismRandomizedAlg repeats the check on the NF/RW
// path, whose sweep kernels consume per-source streams while the build
// stage races ahead — the interleaving most at risk from a
// scheduling-dependent stream assignment.
func TestGenWorkersDeterminismRandomizedAlg(t *testing.T) {
	t.Parallel()
	run := func(workers, shards, genWorkers int) Series {
		s, err := searchSeries("rw", paTopo(1000, 2, 40),
			searchCfg{alg: algRW, maxTTL: 5, kMin: 2, sc: Scale{Sources: 6, Realizations: 5, Workers: workers, SourceShards: shards, GenWorkers: genWorkers}}, 99)
		if err != nil {
			t.Fatalf("workers=%d shards=%d gen=%d: %v", workers, shards, genWorkers, err)
		}
		return s
	}
	want := run(1, 1, 1)
	for _, tc := range []struct{ workers, shards, genWorkers int }{
		{1, 1, 4}, {2, 3, 2}, {4, 2, 4}, {2, 8, 1},
	} {
		if got := run(tc.workers, tc.shards, tc.genWorkers); !reflect.DeepEqual(want, got) {
			t.Fatalf("RW series differs between (1,1,1) and (Workers=%d, SourceShards=%d, GenWorkers=%d)",
				tc.workers, tc.shards, tc.genWorkers)
		}
	}
}

// TestGenWorkersDeterminismParallelGenerators exercises the generators
// with real intra-build parallelism — chunked CM degree sampling, GRN
// placement/radius queries, and DAPA's batched horizon floods — through
// the degree-distribution engine, pinning byte-identical distributions
// for GenWorkers ∈ {1, 2, 4}.
func TestGenWorkersDeterminismParallelGenerators(t *testing.T) {
	t.Parallel()
	sc := tinyScale
	subsFor := func(genWorkers int) []*graph.Frozen {
		s := sc
		s.GenWorkers = genWorkers
		subs, err := makeSubstrates(s.NSubstrate, s, 0xf00d)
		if err != nil {
			t.Fatal(err)
		}
		return subs
	}
	run := func(genWorkers int) [2]interface{} {
		s := sc
		s.GenWorkers = genWorkers
		cm, err := mergedDegreeDist("cm", cmTopo(s.NDegree, 2, 40, 2.5), s, 77)
		if err != nil {
			t.Fatal(err)
		}
		dapa, err := mergedDegreeDist("dapa", dapaTopo(subsFor(genWorkers), s.NOverlay, 2, 40, 6), s, 78)
		if err != nil {
			t.Fatal(err)
		}
		return [2]interface{}{cm, dapa}
	}
	want := run(1)
	for _, gw := range []int{2, 4} {
		if got := run(gw); !reflect.DeepEqual(want, got) {
			t.Fatalf("CM/DAPA degree distributions differ between GenWorkers=1 and GenWorkers=%d", gw)
		}
	}
}

// TestPipelineLowestIndexError pins the pipeline's error contract: with
// failures in both stages, the lowest realization index wins regardless of
// which stage produced it, matching what a sequential run would have
// reported first.
func TestPipelineLowestIndexError(t *testing.T) {
	t.Parallel()
	errBuild, errSweep := errors.New("build"), errors.New("sweep")
	err := forEachRealizationPipeline(engineOpts{}, Scale{Workers: 4, SourceShards: 1, GenWorkers: 2, Realizations: 8}, 1,
		func(r int, b *builder) (int, error) {
			if r == 5 {
				return 0, errBuild
			}
			return r, nil
		},
		func(r int, v int, sw *sweeper) error {
			if r == 2 {
				return errSweep
			}
			return nil
		})
	if err != errSweep {
		t.Fatalf("err = %v, want the lowest-index error %v (sweep at r=2 beats build at r=5)", err, errSweep)
	}
	err = forEachRealizationPipeline(engineOpts{}, Scale{Workers: 4, SourceShards: 1, GenWorkers: 2, Realizations: 8}, 1,
		func(r int, b *builder) (int, error) {
			if r == 2 {
				return 0, errBuild
			}
			return r, nil
		},
		func(r int, v int, sw *sweeper) error {
			if r == 5 {
				return errSweep
			}
			return nil
		})
	if err != errBuild {
		t.Fatalf("err = %v, want the lowest-index error %v (build at r=2 beats sweep at r=5)", err, errBuild)
	}
}

// TestPipelineErrorSkipsSweep checks a failed build never reaches the
// sweep stage while the other realizations still complete.
func TestPipelineErrorSkipsSweep(t *testing.T) {
	t.Parallel()
	errBuild := errors.New("build")
	var swept [8]atomic.Int32
	err := forEachRealizationPipeline(engineOpts{}, Scale{Workers: 2, SourceShards: 1, GenWorkers: 2, Realizations: 8}, 1,
		func(r int, b *builder) (int, error) {
			if r == 3 {
				return 0, errBuild
			}
			return r, nil
		},
		func(r int, v int, sw *sweeper) error {
			swept[r].Add(1)
			return nil
		})
	if err != errBuild {
		t.Fatalf("err = %v, want %v", err, errBuild)
	}
	for r := range swept {
		want := int32(1)
		if r == 3 {
			want = 0
		}
		if c := swept[r].Load(); c != want {
			t.Errorf("realization %d swept %d times, want %d", r, c, want)
		}
	}
}

// TestPipelineConcurrencyBounds checks both stage bounds: never more than
// GenWorkers concurrent builds, never more than Workers concurrent sweeps.
func TestPipelineConcurrencyBounds(t *testing.T) {
	t.Parallel()
	const workers, genWorkers, n = 3, 2, 24
	var buildIn, buildPeak, sweepIn, sweepPeak atomic.Int32
	peak := func(cur int32, p *atomic.Int32) {
		for {
			v := p.Load()
			if cur <= v || p.CompareAndSwap(v, cur) {
				break
			}
		}
	}
	err := forEachRealizationPipeline(engineOpts{}, Scale{Workers: workers, SourceShards: 1, GenWorkers: genWorkers, Realizations: n}, 7,
		func(r int, b *builder) (int, error) {
			peak(buildIn.Add(1), &buildPeak)
			_ = b.rng.Uint64()
			buildIn.Add(-1)
			return r, nil
		},
		func(r int, v int, sw *sweeper) error {
			peak(sweepIn.Add(1), &sweepPeak)
			sweepIn.Add(-1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := buildPeak.Load(); p > genWorkers {
		t.Fatalf("observed %d concurrent builds, GenWorkers bound is %d", p, genWorkers)
	}
	if p := sweepPeak.Load(); p > workers {
		t.Fatalf("observed %d concurrent sweeps, worker bound is %d", p, workers)
	}
}

// TestPipelineRunsEachRealizationOnce checks every realization is built
// exactly once and swept exactly once for degenerate and oversized stage
// bounds.
func TestPipelineRunsEachRealizationOnce(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ workers, genWorkers, n int }{
		{-1, -1, 8}, {0, 0, 8}, {1, 16, 5}, {16, 1, 4}, {4, 4, 0}, {2, 3, 1},
	} {
		built := make([]atomic.Int32, tc.n)
		swept := make([]atomic.Int32, tc.n)
		err := forEachRealizationPipeline(engineOpts{}, Scale{Workers: tc.workers, SourceShards: 1, GenWorkers: tc.genWorkers, Realizations: tc.n}, 7,
			func(r int, b *builder) (int, error) {
				built[r].Add(1)
				return r, nil
			},
			func(r int, v int, sw *sweeper) error {
				if v != r {
					t.Errorf("realization %d received snapshot %d", r, v)
				}
				swept[r].Add(1)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tc.n; r++ {
			if c := built[r].Load(); c != 1 {
				t.Errorf("workers=%d gen=%d: realization %d built %d times", tc.workers, tc.genWorkers, r, c)
			}
			if c := swept[r].Load(); c != 1 {
				t.Errorf("workers=%d gen=%d: realization %d swept %d times", tc.workers, tc.genWorkers, r, c)
			}
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
	err := buildOnly(Scale{Workers: 2, GenWorkers: 4, Realizations: n}, seed, func(r int, b *builder) error {
		if got := b.rng.Uint64(); got != wantRNG[r] {
			t.Errorf("realization %d legacy stream is not the r-th root split", r)
		}
		want := xrand.Phases{Seed: seed, Realization: uint64(r)}
		if b.phases != want {
			t.Errorf("realization %d phases = %+v, want %+v", r, b.phases, want)
		}
		if b.genWorkers < 1 {
			t.Errorf("realization %d genWorkers = %d, want >= 1", r, b.genWorkers)
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
	err := forEachRealizationPipeline(engineOpts{}, Scale{Workers: 1, SourceShards: 4, GenWorkers: 2, Realizations: 2}, 9,
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
