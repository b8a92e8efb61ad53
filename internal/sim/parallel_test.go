package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// A budgetGrid lists, for each realization count n, the budgets compared
// against the serial run (Workers = 1). schedule(P, n) turns each budget
// into `lanes` realizations in flight and a per-realization `width`
// shared by the generator and the source sweep.
type budgetGrid []struct {
	n       int
	budgets []int
}

// mixedGrid reaches every schedule shape — shards only (n = 1, P > 1:
// lanes 1, width P), lanes = n (P = 3), a budget that is not a multiple
// of n (P = 4: lanes 3, width 2; P = 8: width 3), and the GOMAXPROCS
// default.
var mixedGrid = budgetGrid{
	{1, []int{4}},
	{3, []int{3, 4, 8, 0}},
}

// laneGrid varies the build stage: several realizations generated and
// frozen concurrently ahead of the sweep (lanes > 1), with generator
// widths 1, 2 and 3 (P = 2, 4, 6 at n = 2) and more lanes than the
// sweep can drain at once (n = 5: lanes 2, 3 and 5).
var laneGrid = budgetGrid{
	{2, []int{2, 4, 6}},
	{5, []int{2, 3, 5, 10}},
}

// shardGrid varies the source sweep: one realization at a time split
// across 2, 3 and 8 shards, and several lanes each sharding its own
// sweep (n = 2, P = 6: lanes 2, width 3; n = 4, P = 12: lanes 4, width 3).
var shardGrid = budgetGrid{
	{1, []int{2, 3, 8}},
	{2, []int{6}},
	{4, []int{12}},
}

// oddGrid runs the batched specs at R = 3, where series overlap on the
// lane pool: lanes 2, so each series' third realization shares the pool
// with the next series' first (P = 2), lanes = R (P = 3), width 2 (P = 4),
// and the GOMAXPROCS default.
var oddGrid = budgetGrid{{3, []int{2, 3, 4, 0}}}

// checkSpecBudgets is the golden-seed regression for the engine: a spec
// must produce byte-identical Figures under every budget of grid. Fig6
// covers the PA and HAPA generators plus the flooding kernel (batched FL
// runs, whose width follows the shard count) across 18 series; Fig9 runs
// 60 NF series in six nested panels, Strategies 14 source-sweep builds,
// Fig3 18 build-only HAPA series and Attack 6 build-only builds whose row
// length the robustness curve decides, each spec's series as one batch on
// one lane pool.
func checkSpecBudgets(t *testing.T, id string, grid budgetGrid) {
	t.Helper()
	spec, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grid {
		run := func(workers int) []Figure {
			sc := tinyScale
			sc.Realizations, sc.Workers = g.n, workers
			figs, err := spec.Run(sc, 2007)
			if err != nil {
				t.Fatalf("%s n=%d workers=%d: %v", id, g.n, workers, err)
			}
			return figs
		}
		want := run(1)
		for _, p := range g.budgets {
			if got := run(p); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s output (n=%d) differs between Workers=1 and Workers=%d", id, g.n, p)
			}
		}
	}
}

// checkSearchBudgets repeats the grid on randomized kernels — NF consumes
// the per-source stream heavily and RW additionally couples walk length to
// NF's draw sequence, while the build stage races ahead — the paths most
// at risk from a scheduling-dependent stream assignment.
func checkSearchBudgets(t *testing.T, algs []algKind, sources int, grid budgetGrid) {
	t.Helper()
	for _, alg := range algs {
		for _, g := range grid {
			run := func(workers int) Series {
				s, err := searchSeries(alg.String(), paTopo(1000, 2, 40),
					searchCfg{alg: alg, maxTTL: 5, kMin: 2, sc: Scale{Sources: sources, Realizations: g.n, Workers: workers}}, 99)
				if err != nil {
					t.Fatalf("%v n=%d workers=%d: %v", alg, g.n, workers, err)
				}
				return s
			}
			want := run(1)
			for _, p := range g.budgets {
				if got := run(p); !reflect.DeepEqual(want, got) {
					t.Fatalf("%v series (n=%d) differs between Workers=1 and Workers=%d", alg, g.n, p)
				}
			}
		}
	}
}

func TestWorkersBitForBitDeterminism(t *testing.T) {
	t.Parallel()
	checkSpecBudgets(t, "fig6", mixedGrid)
}

func TestWorkersDeterminismRandomizedAlg(t *testing.T) {
	t.Parallel()
	checkSearchBudgets(t, []algKind{algNF, algRW}, 9, mixedGrid)
}

// TestWorkersBatchedSearchSpec pins Fig9 and Strategies across oddGrid.
func TestWorkersBatchedSearchSpec(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig9", "strategies"} {
		checkSpecBudgets(t, id, oddGrid)
	}
}

// TestWorkersBatchedBuildSpec pins Fig3 and Attack across oddGrid.
func TestWorkersBatchedBuildSpec(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig3", "attack"} {
		checkSpecBudgets(t, id, oddGrid)
	}
}

// TestGenWorkersBitForBitDeterminism pins Fig6 across the build-stage
// schedules of laneGrid.
func TestGenWorkersBitForBitDeterminism(t *testing.T) {
	t.Parallel()
	checkSpecBudgets(t, "fig6", laneGrid)
}

// TestGenWorkersDeterminismRandomizedAlg pins RW, whose sweep consumes
// per-source streams while later builds race ahead, across laneGrid.
func TestGenWorkersDeterminismRandomizedAlg(t *testing.T) {
	t.Parallel()
	checkSearchBudgets(t, []algKind{algRW}, 6, laneGrid)
}

// TestSourceShardsBitForBitDeterminism pins Fig6 across the sweep widths
// of shardGrid. Flooding draws no search randomness, so this isolates the
// slot/reduction machinery and the shared-Frozen sweep.
func TestSourceShardsBitForBitDeterminism(t *testing.T) {
	t.Parallel()
	checkSpecBudgets(t, "fig6", shardGrid)
}

// TestSourceShardsDeterminismRandomizedAlg pins NF and RW, whose per-source
// streams must not depend on which shard draws them, across shardGrid.
func TestSourceShardsDeterminismRandomizedAlg(t *testing.T) {
	t.Parallel()
	checkSearchBudgets(t, []algKind{algNF, algRW}, 9, shardGrid)
}

// buildOnly runs fn as the build of a strict engine with a nil sweep: the
// build-only shape degree, churn and robustness specs run in.
func buildOnly(sc Scale, seed uint64, fn func(r int, b *builder) error) error {
	return runJob(sc, seed, func(r int, b *builder) (struct{}, error) {
		return struct{}{}, fn(r, b)
	}, nil)
}

// TestForEachRealizationWorkerPool is the table-driven concurrency test of
// the pool itself (run under -race in CI): every realization index must run
// exactly once and receive the same RNG stream regardless of worker count,
// including degenerate counts (negative, zero, more workers than work).
func TestForEachRealizationWorkerPool(t *testing.T) {
	t.Parallel()
	reference := func(n int, seed uint64) []uint64 {
		out := make([]uint64, n)
		if err := buildOnly(Scale{Workers: 1, Realizations: n}, seed, func(r int, b *builder) error {
			out[r] = b.rng.Uint64()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		workers, n int
	}{
		{-1, 8}, {0, 8}, {1, 8}, {2, 8}, {3, 7}, {8, 8}, {16, 4}, {4, 0}, {4, 1},
	} {
		tc := tc
		t.Run(fmt.Sprintf("workers=%d_n=%d", tc.workers, tc.n), func(t *testing.T) {
			t.Parallel()
			want := reference(tc.n, 42)
			got := make([]uint64, tc.n)
			ran := make([]atomic.Int32, tc.n)
			err := buildOnly(Scale{Workers: tc.workers, Realizations: tc.n}, 42, func(r int, b *builder) error {
				ran[r].Add(1)
				got[r] = b.rng.Uint64()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < tc.n; r++ {
				if c := ran[r].Load(); c != 1 {
					t.Errorf("realization %d ran %d times", r, c)
				}
				if got[r] != want[r] {
					t.Errorf("realization %d saw a different RNG stream", r)
				}
			}
		})
	}
}

// TestForEachRealizationConcurrencyBounded checks the pool never runs more
// than `workers` realizations at once.
func TestForEachRealizationConcurrencyBounded(t *testing.T) {
	t.Parallel()
	const workers, n = 3, 24
	var inFlight, peak atomic.Int32
	err := buildOnly(Scale{Workers: workers, Realizations: n}, 7, func(r int, b *builder) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Touch the RNG so the loop body is not optimized away.
		_ = b.rng.Uint64()
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent realizations, worker bound is %d", p, workers)
	}
}

// TestForEachRealizationScratchPerWorker checks every swept realization
// gets a usable scratch and that scratches are per-sweep-worker: never
// more distinct instances than workers, and never shared between two
// realizations at once (the -race build would flag concurrent sharing).
func TestForEachRealizationScratchPerWorker(t *testing.T) {
	t.Parallel()
	const workers, n = 4, 32
	var mu sync.Mutex
	seen := make(map[*search.Scratch]int)
	err := runJob(Scale{Workers: workers, Realizations: n}, 5,
		func(r int, b *builder) (int, error) { return r, nil },
		func(r int, _ int, sw *sweeper) error {
			scratch := sw.scratches[0]
			if scratch == nil {
				return errors.New("nil scratch")
			}
			mu.Lock()
			seen[scratch]++
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) > workers {
		t.Fatalf("%d distinct scratches for %d workers", len(seen), workers)
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != n {
		t.Fatalf("scratch invocations = %d, want %d", total, n)
	}
}

// TestForEachRealizationReturnsLowestIndexError pins the error contract:
// with several failing realizations, the lowest index wins, matching what
// a sequential run would have reported first.
func TestForEachRealizationReturnsLowestIndexError(t *testing.T) {
	t.Parallel()
	errA, errB := errors.New("a"), errors.New("b")
	err := buildOnly(Scale{Workers: 4, Realizations: 8}, 1, func(r int, b *builder) error {
		switch r {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("err = %v, want the lowest-index error %v", err, errA)
	}
}

// TestSweeperSourcesStreams pins the stream-derivation contract: every
// source runs exactly once, receives xrand.NewStream(seed, stream, s)
// regardless of shard count (including degenerate counts), and shard
// scheduling cannot leak one source's draws into another's.
func TestSweeperSourcesStreams(t *testing.T) {
	t.Parallel()
	const sources = 20
	collect := func(shards int) []uint64 {
		out := make([]uint64, sources)
		ran := make([]atomic.Int32, sources)
		err := withSweeper(shards, 7, func(sw *sweeper) error {
			return sw.Sources(0, sources, func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
				if scratch == nil {
					return errors.New("nil scratch")
				}
				ran[s].Add(1)
				out[s] = rng.Uint64()
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sources; s++ {
			if c := ran[s].Load(); c != 1 {
				t.Fatalf("shards=%d: source %d ran %d times", shards, s, c)
			}
		}
		return out
	}
	want := collect(1)
	for s := range want {
		if got := xrand.NewStream(7, 0, uint64(s)).Uint64(); want[s] != got {
			t.Fatalf("source %d stream is not NewStream(seed, stream, s)", s)
		}
	}
	for _, shards := range []int{-1, 0, 2, 3, 8, 16, 64} {
		if got := collect(shards); !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d: source streams differ from serial sweep", shards)
		}
	}
}

// TestSweeperSourcesConcurrencyBounded checks the sweep never runs more
// than `shards` sources at once (the calling worker counts as shard 0).
func TestSweeperSourcesConcurrencyBounded(t *testing.T) {
	t.Parallel()
	const shards, sources = 3, 24
	var inFlight, peak atomic.Int32
	err := withSweeper(shards, 7, func(sw *sweeper) error {
		return sw.Sources(0, sources, func(_, s int, rng *xrand.RNG, _ *search.Scratch) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			_ = rng.Uint64()
			inFlight.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > shards {
		t.Fatalf("observed %d concurrent sources, shard bound is %d", p, shards)
	}
}

// TestSweeperSourcesLowestIndexError pins the sweep's error contract to
// the outer pool's: the lowest source index wins, matching what a serial
// sweep would have reported first.
func TestSweeperSourcesLowestIndexError(t *testing.T) {
	t.Parallel()
	errA, errB := errors.New("a"), errors.New("b")
	for _, shards := range []int{1, 4} {
		err := withSweeper(shards, 7, func(sw *sweeper) error {
			return sw.Sources(0, 16, func(_, s int, _ *xrand.RNG, _ *search.Scratch) error {
				switch s {
				case 9:
					return errB
				case 3:
					return errA
				}
				return nil
			})
		})
		if err != errA {
			t.Fatalf("shards=%d: err = %v, want the lowest-index error %v", shards, err, errA)
		}
	}
}

// TestSweeperScratchPerShard checks each shard keeps its own scratch (the
// -race build would flag concurrent sharing) and that scratches are reused
// across repeated sweeps rather than reallocated.
func TestSweeperScratchPerShard(t *testing.T) {
	t.Parallel()
	const shards, sources, sweeps = 4, 32, 3
	var mu sync.Mutex
	byShard := make([]map[*search.Scratch]bool, shards)
	for i := range byShard {
		byShard[i] = map[*search.Scratch]bool{}
	}
	err := withSweeper(shards, 5, func(sw *sweeper) error {
		for k := 0; k < sweeps; k++ {
			if err := sw.Sources(uint64(k), sources, func(shard, s int, _ *xrand.RNG, scratch *search.Scratch) error {
				mu.Lock()
				byShard[shard][scratch] = true
				mu.Unlock()
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*search.Scratch]int{}
	for shard, set := range byShard {
		// A shard may process zero sources when faster shards drain the
		// queue first; it must never use more than one scratch, nor one
		// another shard uses.
		if len(set) > 1 {
			t.Fatalf("shard %d used %d distinct scratches, want at most 1", shard, len(set))
		}
		for sc := range set {
			if prev, dup := seen[sc]; dup {
				t.Fatalf("shards %d and %d share a scratch", prev, shard)
			}
			seen[sc] = shard
		}
	}
	if len(byShard[0]) != 1 {
		t.Fatalf("shard 0 (the calling worker) used %d scratches, want 1", len(byShard[0]))
	}
}
