package sim

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// checkSpecBudgets is the whole-spec regression of the lane pool: each
// spec, run at tinyScale over R = 3 realizations, publishes byte-identical
// Figures under budget 3 (lanes 3: a build's last realizations share the
// pool with the next build's first) as under budget 1. The scheduler's
// contract itself is FuzzRunPool's; these pin that every batch shape a spec
// hands the pool keeps to it.
func checkSpecBudgets(t *testing.T, ids ...string) {
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) []Figure {
				sc := tinyScale
				sc.Realizations, sc.Workers = 3, workers
				figs, err := spec.Run(sc, 2007)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return figs
			}
			if want, got := run(1), run(3); !reflect.DeepEqual(want, got) {
				t.Fatal("output differs between Workers=1 and Workers=3")
			}
		})
	}
}

// TestWorkersBatchedBuildSpec pins the build-side batch shapes: Attack's
// build-only builds, whose row length the robustness curve decides, and
// DESFail's one shared build per realization swept for every knob series.
func TestWorkersBatchedBuildSpec(t *testing.T) {
	t.Parallel()
	checkSpecBudgets(t, "attack", "desfail")
}

// TestWorkersBatchedSearchSpec pins the sweep-side batch shapes:
// Strategies' source sweeps (every randomized kernel, one build each) and
// Fig9's nested panel batch.
func TestWorkersBatchedSearchSpec(t *testing.T) {
	t.Parallel()
	checkSpecBudgets(t, "strategies", "fig9")
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
		sw := newSweeper(7, shards)
		defer sw.release()
		err := sw.Sources(0, sources, func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
			if scratch == nil {
				return errors.New("nil scratch")
			}
			ran[s].Add(1)
			out[s] = rng.Uint64()
			return nil
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
	sw := newSweeper(7, shards)
	defer sw.release()
	err := sw.Sources(0, sources, func(_, s int, rng *xrand.RNG, _ *search.Scratch) error {
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
		sw := newSweeper(7, shards)
		err := sw.Sources(0, 16, func(_, s int, _ *xrand.RNG, _ *search.Scratch) error {
			switch s {
			case 9:
				return errB
			case 3:
				return errA
			}
			return nil
		})
		sw.release()
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
	sw := newSweeper(5, shards)
	defer sw.release()
	for k := 0; k < sweeps; k++ {
		if err := sw.Sources(uint64(k), sources, func(shard, s int, _ *xrand.RNG, scratch *search.Scratch) error {
			mu.Lock()
			byShard[shard][scratch] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
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
