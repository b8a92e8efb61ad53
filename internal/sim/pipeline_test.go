package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
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

// TestPipelineSchedule pins how the engine splits its budget. Every row is
// the (sweep workers, source shards, build pool, intra-build width) the
// engine resolved from Workers = 0 with GOMAXPROCS = P when the scheduler
// still had three knobs; at that default the four always read
// (lanes, width, lanes, width), which is all schedule keeps.
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

// TestPipelineLowestIndexError pins the pipeline's error contract: with
// failures in both stages, the lowest realization index wins regardless of
// which stage produced it, matching what a sequential run would have
// reported first.
func TestPipelineLowestIndexError(t *testing.T) {
	t.Parallel()
	errBuild, errSweep := errors.New("build"), errors.New("sweep")
	err := runJob(Scale{Workers: 4, Realizations: 8}, 1,
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
	err = runJob(Scale{Workers: 4, Realizations: 8}, 1,
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
	err := runJob(Scale{Workers: 2, Realizations: 8}, 1,
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

// TestPipelineConcurrencyBounds checks the schedule's bounds: a budget of
// 7 over 24 realizations runs at most lanes = 7 builds and 7 sweeps at
// once, and one budget of 7 over 3 realizations sweeps each one's sources
// on at most width = 3 shards, with builds told the same width.
func TestPipelineConcurrencyBounds(t *testing.T) {
	t.Parallel()
	peak := func(cur int32, p *atomic.Int32) {
		for {
			v := p.Load()
			if cur <= v || p.CompareAndSwap(v, cur) {
				break
			}
		}
	}
	for _, tc := range []struct{ p, n, lanes, width int }{{7, 24, 7, 1}, {7, 3, 3, 3}} {
		var buildIn, buildPeak, sweepIn, sweepPeak atomic.Int32
		shardIn := make([]atomic.Int32, tc.n)
		shardPeak := make([]atomic.Int32, tc.n)
		err := runJob(Scale{Workers: tc.p, Realizations: tc.n}, 7,
			func(r int, b *builder) (int, error) {
				peak(buildIn.Add(1), &buildPeak)
				if b.width != tc.width {
					t.Errorf("p=%d n=%d: build width %d, want %d", tc.p, tc.n, b.width, tc.width)
				}
				buildIn.Add(-1)
				return r, nil
			},
			func(r int, v int, sw *sweeper) error {
				peak(sweepIn.Add(1), &sweepPeak)
				defer sweepIn.Add(-1)
				return sw.Sources(uint64(r), 4*tc.width, func(_, _ int, rng *xrand.RNG, _ *search.Scratch) error {
					peak(shardIn[r].Add(1), &shardPeak[r])
					_ = rng.Uint64()
					shardIn[r].Add(-1)
					return nil
				})
			})
		if err != nil {
			t.Fatal(err)
		}
		if p := buildPeak.Load(); p > int32(tc.lanes) {
			t.Fatalf("p=%d n=%d: observed %d concurrent builds, lanes bound is %d", tc.p, tc.n, p, tc.lanes)
		}
		if p := sweepPeak.Load(); p > int32(tc.lanes) {
			t.Fatalf("p=%d n=%d: observed %d concurrent sweeps, lanes bound is %d", tc.p, tc.n, p, tc.lanes)
		}
		for r := range shardPeak {
			if p := shardPeak[r].Load(); p > int32(tc.width) {
				t.Fatalf("p=%d n=%d: realization %d swept %d sources at once, width bound is %d", tc.p, tc.n, r, p, tc.width)
			}
		}
	}
}

// TestPipelineRunsEachRealizationOnce checks every realization is built
// exactly once and swept exactly once for degenerate and oversized
// budgets.
func TestPipelineRunsEachRealizationOnce(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ workers, n int }{
		{-1, 8}, {0, 8}, {1, 5}, {16, 4}, {4, 0}, {3, 1},
	} {
		built := make([]atomic.Int32, tc.n)
		swept := make([]atomic.Int32, tc.n)
		err := runJob(Scale{Workers: tc.workers, Realizations: tc.n}, 7,
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
				t.Errorf("workers=%d: realization %d built %d times", tc.workers, r, c)
			}
			if c := swept[r].Load(); c != 1 {
				t.Errorf("workers=%d: realization %d swept %d times", tc.workers, r, c)
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
