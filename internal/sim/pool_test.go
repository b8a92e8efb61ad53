package sim

// Tests for the lane pool a spec's series share (the odd-R budget grids of
// the batched specs are in parallel_test.go): a series' first realization
// starts building before the previous series' last one has landed, the error
// returned is the lowest series' whatever the budget, a batch cut
// mid-journal rebuilds only its missing (series, realization) tasks, and a
// lane's arena that saw a failed build never serves another.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
)

// poolRuns declares k FL series on small PA topologies, series i at seed
// 50+i, each built by factory(i).
func poolRuns(sc Scale, k int, factory func(i int) topoFactory) []searchRun {
	runs := make([]searchRun, k)
	for i := range runs {
		runs[i] = searchRun{string(rune('a' + i)), factory(i), searchCfg{sc: sc, alg: algFL, maxTTL: 4}, uint64(50 + i)}
	}
	return runs
}

// TestLanePoolNoBarrier: series 1's realization 0 starts building while
// series 0's last realization is still being built — the build of series
// 0, r = 2 waits for it, so a barrier between series would stall it until
// the timeout.
func TestLanePoolNoBarrier(t *testing.T) {
	t.Parallel()
	sc := Scale{Sources: 3, Realizations: 3, Workers: 2}
	inner := paTopo(200, 2, gen.NoCutoff)
	started := make(chan struct{})
	var builds atomic.Int64
	runs := poolRuns(sc, 2, func(i int) topoFactory {
		return countingFactory(func(r int, b *builder) (*graph.Frozen, error) {
			switch {
			case i == 0 && r == sc.Realizations-1:
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					t.Error("series 1 did not start building before series 0's last realization landed")
				}
			case i == 1 && r == 0:
				close(started)
			}
			return inner(r, b)
		}, &builds)
	})
	if _, err := searchBatch(runs...); err != nil {
		t.Fatal(err)
	}
	if got, want := builds.Load(), int64(2*sc.Realizations); got != want {
		t.Fatalf("%d builds, want %d", got, want)
	}
}

// TestLanePoolLowestSeriesError: series 2 fails at r = 2 — slowly, so that
// on several lanes series 5's failure at r = 0 lands first — and the batch
// returns series 2's error for every budget, unsupervised and under a
// retrying supervisor with a -max-failed budget of 0 (whose abort must name
// series 2's failure as the one that tripped it). The six builds run once
// swept (FL series) and once build-only (degree series: the nil-sweep shape
// attack, churn and table1 run in).
func TestLanePoolLowestSeriesError(t *testing.T) {
	t.Parallel()
	err2, err5 := errors.New("series 2 failed"), errors.New("series 5 failed")
	inner := paTopo(200, 2, gen.NoCutoff)
	factory := func(i int) topoFactory {
		return func(r int, b *builder) (*graph.Frozen, error) {
			switch {
			case i == 2 && r == 2:
				time.Sleep(20 * time.Millisecond)
				return nil, err2
			case i == 5 && r == 0:
				return nil, err5
			}
			return inner(r, b)
		}
	}
	for _, buildOnly := range []bool{false, true} {
		for _, supervised := range []bool{false, true} {
			for _, workers := range []int{1, 2, 3, 4, 0} {
				sc := Scale{Sources: 2, Realizations: 3, Workers: workers}
				if supervised {
					sc.Run = testRC(1, 0)
				}
				runs := poolRuns(sc, 6, factory)
				var err error
				if buildOnly {
					degree := make([]degreeRun, len(runs))
					for i, run := range runs {
						degree[i] = degreeRun{tag: run.label, factory: run.factory, seed: run.seed}
					}
					_, err = mergedDegreeDists(sc, degree...)
				} else {
					_, err = searchBatch(runs...)
				}
				if !errors.Is(err, err2) || errors.Is(err, err5) {
					t.Errorf("buildOnly=%v supervised=%v workers=%d: err = %v, want series 2's", buildOnly, supervised, workers, err)
				}
			}
		}
	}
}

// TestLanePoolResumeMidBatch journals a four-series batch on two lanes, so
// records of neighbouring series interleave, cuts the journal mid-batch and
// resumes it on three: the series equal the unjournaled batch bit for bit,
// and exactly the (series, realization) tasks the cut journal lacks are
// rebuilt.
func TestLanePoolResumeMidBatch(t *testing.T) {
	t.Parallel()
	const k = 4
	sc := Scale{Sources: 3, Realizations: 3}
	inner := paTopo(300, 2, gen.NoCutoff)
	var builds [k][3]atomic.Int64
	runs := func(sc Scale) []searchRun {
		return poolRuns(sc, k, func(i int) topoFactory {
			return func(r int, b *builder) (*graph.Frozen, error) {
				builds[i][r].Add(1)
				return inner(r, b)
			}
		})
	}
	want, err := searchBatch(runs(sc)...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func(name string, resume bool) *Journal {
		t.Helper()
		j, err := OpenJournal(filepath.Join(dir, name), "batch", 7, sc, resume)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	run := func(j *Journal, workers int) []Series {
		t.Helper()
		rsc := sc
		rsc.Workers, rsc.Run = workers, NewRunControl(context.Background(), 0, 0, j)
		got, err := searchBatch(runs(rsc)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := run(open("full.journal", false), 2); !reflect.DeepEqual(got, want) {
		t.Fatal("journaling perturbed the batch")
	}
	image, err := os.ReadFile(filepath.Join(dir, "full.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, image)
	if err := os.WriteFile(filepath.Join(dir, "cut.journal"), image[:ends[len(ends)/2]], 0o644); err != nil {
		t.Fatal(err)
	}
	cut := open("cut.journal", true)
	missing := make(map[[2]int]bool)
	for i, run := range runs(sc) {
		for r := 0; r < sc.Realizations; r++ {
			if _, ok := cut.payloadOf(journalKey{kind: recSweepSlots, stream: run.seed, sub: journalTag(run.label), r: r}); !ok {
				missing[[2]int{i, r}] = true
			}
		}
	}
	if n := len(missing); n == 0 || n == k*sc.Realizations {
		t.Fatalf("cut journal lacks %d of %d tasks, want a strict subset", n, k*sc.Realizations)
	}
	for i := range builds {
		for r := range builds[i] {
			builds[i][r].Store(0)
		}
	}
	if got := run(cut, 3); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed batch differs from the unjournaled one")
	}
	for i := range builds {
		for r := range builds[i] {
			if got, want := builds[i][r].Load(), map[bool]int64{false: 0, true: 1}[missing[[2]int{i, r}]]; got != want {
				t.Errorf("series %d realization %d built %d times on resume, want %d", i, r, got, want)
			}
		}
	}
}

// TestFreeListDropsFailedArena: a first build that grows its lane's arena
// and then panics is retried on a fresh arena; the lane drops the arena the
// panic saw — no later build gets it, and it never reaches the free list —
// and every series of the batch equals the never-failed run bit for bit.
// Not parallel: it owns the free list.
func TestFreeListDropsFailedArena(t *testing.T) {
	sc := Scale{Sources: 3, Realizations: 2, Workers: 1}
	inner := cmTopo(300, 2, gen.NoCutoff, 2.5)
	var failed *graph.CSRArena
	var later []*graph.CSRArena
	runs := func(sc Scale, inject bool) []searchRun {
		return poolRuns(sc, 3, func(i int) topoFactory {
			return func(r int, b *builder) (*graph.Frozen, error) {
				if inject {
					switch {
					case failed == nil:
						failed = b.arena
						b.arena.Grab(4096)
						panic("injected build panic")
					case i > 0:
						later = append(later, b.arena)
					}
				}
				return inner(r, b)
			}
		})
	}
	want, err := searchBatch(runs(sc, false)...)
	if err != nil {
		t.Fatal(err)
	}
	rsc := sc
	rsc.Run = testRC(1, 0)
	got, err := searchBatch(runs(rsc, true)...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a batch whose first build panicked differs from the never-failed one")
	}
	if failed == nil || len(later) == 0 {
		t.Fatalf("test did not see the failed arena (%p) and later builds (%d)", failed, len(later))
	}
	if slices.Contains(later, failed) {
		t.Fatal("a later build ran on the arena a panicked build left behind")
	}
	laneFree.Lock()
	defer laneFree.Unlock()
	if slices.Contains(laneFree.arenas, failed) {
		t.Fatal("the failed build's arena was released to the free list")
	}
	if !slices.Contains(laneFree.arenas, later[len(later)-1]) {
		t.Fatal("the lane's clean arena was not released")
	}
}
