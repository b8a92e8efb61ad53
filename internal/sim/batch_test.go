package sim

// Tests for the batched FL sweep (sweeper.FloodSources over
// search.FloodBatch) and the lane free list (laneFree) behind newSweeper.
// The reference throughout is the per-source path the engine ran before:
// sweeper.Sources calling Scratch.Flood once per source.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// perSourceFLRows runs cfg's FL sweep one Scratch.Flood per source and
// returns the slot rows (layout r*sources+s) as sample fills them.
func perSourceFLRows(t *testing.T, factory topoFactory, cfg searchCfg, seed uint64, sample func(search.Result, []float64)) [][]float64 {
	t.Helper()
	rows := make([][]float64, cfg.sc.Realizations*cfg.sc.Sources)
	err := runJob(Scale{Workers: 1, Realizations: cfg.sc.Realizations}, seed,
		factory,
		func(r int, f *graph.Frozen, sw *sweeper) error {
			return sw.Sources(uint64(r), cfg.sc.Sources, func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
				res, err := scratch.Flood(f, rng.Intn(f.N()), cfg.maxTTL)
				if err != nil {
					return err
				}
				row := make([]float64, cfg.maxTTL+1)
				sample(res, row)
				rows[r*cfg.sc.Sources+s] = row
				return nil
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// flSweep is searchSeries' FL sweep with the per-source sampling left to
// the caller: sample fills source s's row from its flood result. It
// journals under tag and labels the series "fl".
func flSweep(tag string, factory topoFactory, cfg searchCfg, seed uint64, sample func(search.Result, []float64)) (Series, error) {
	means, err := realizationBatch(cfg.sc, minted(shared("", seed, factory, sweepSeries(cfg.sc, recSweepSlots, tag, 1, cfg.maxTTL+1,
		func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error {
			return sw.FloodSources(uint64(r), len(rows), f, cfg.maxTTL, func(s int, res search.Result) { sample(res, rows[s]) })
		}))))
	if err != nil {
		return Series{}, err
	}
	return aggregate("fl", blockRow(means[0][0], 0), 1)
}

// flMsgs samples a flood's messages within t hops into row[t]. No spec
// sweeps FL messages, and the batched kernel counts none; the DES flood's
// message counts are pinned to per-source Scratch.Flood rows with it.
func flMsgs(res search.Result, row []float64) {
	for t := range row {
		row[t] = float64(res.MessagesAt(t))
	}
}

// TestBatchSweepMatchesPerSourceSweep: for source counts on both sides of
// every batch-width boundary and for serial, sharded and lane-parallel
// budgets (1: lanes 1, width 1; 6: lanes 3, width 2; 21: lanes 3, width
// 7), the FL hits series equals the per-source sweep's, and a journaled
// run writes the same record bytes.
func TestBatchSweepMatchesPerSourceSweep(t *testing.T) {
	t.Parallel()
	const seed = 2007
	sc := testScaleTiny()
	factory := cmTopo(300, 1, 10, 2.2) // m=1: many components, floods exhaust early
	for _, sources := range []int{1, 12, 64, 65, 150} {
		cfg := searchCfg{alg: algFL, maxTTL: 12, sc: Scale{Sources: sources, Realizations: 3}}
		rows := perSourceFLRows(t, factory, cfg, seed, hitsRow)
		want, err := aggregate("fl", meanRows(blocksOf(rows, cfg.sc.Sources), 0, cfg.sc.Sources), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 6, 21} {
			name := fmt.Sprintf("sources=%d workers=%d", sources, workers)
			path := filepath.Join(t.TempDir(), "fl.journal")
			j, err := OpenJournal(path, "fig", seed, sc, false)
			if err != nil {
				t.Fatal(err)
			}
			jcfg := cfg
			jcfg.sc.Workers = workers
			jcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j)
			got, err := searchSeries("fl", factory, jcfg, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: series differs from the per-source sweep", name)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			written, err := OpenJournal(path, "fig", seed, sc, true)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < cfg.sc.Realizations; r++ {
				rec, _ := written.payloadOf(journalKey{kind: recSweepSlots, stream: seed, sub: journalTag("fl"), r: r})
				if !bytes.Equal(rec, rowPayload(rows[r*sources:(r+1)*sources], cfg.maxTTL+1)) {
					t.Fatalf("%s: journal record of realization %d differs from the per-source sweep's", name, r)
				}
			}
			written.Close()
		}
	}
}

// freeListTopo builds one CM snapshot outside the engine.
func freeListTopo(t *testing.T, n int) *graph.Frozen {
	t.Helper()
	f, _, err := gen.CMFrozen(gen.CMConfig{N: n, M: 2, KC: 40, Gamma: 2.6}, gen.NewBuild(xrand.Phases{Seed: uint64(n)}, 1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// blocksOf cuts a flat realization-major slot array into per-realization
// blocks of `sources` rows; a realization whose rows are nil is absent.
func blocksOf(flat [][]float64, sources int) [][][]float64 {
	blocks := make([][][]float64, len(flat)/sources)
	for r := range blocks {
		if rows := flat[r*sources : (r+1)*sources]; rows[0] != nil {
			blocks[r] = rows
		}
	}
	return blocks
}

// meanRows is the reduction the engine ran before blocks were reduced as
// they land, kept as the reference: each realization's block reduced to
// the mean of its rows lo..hi-1, summed in row order; a nil block stays a
// nil entry.
func meanRows(blocks [][][]float64, lo, hi int) [][]float64 {
	perReal := make([][]float64, len(blocks))
	for r, rows := range blocks {
		if rows == nil {
			continue
		}
		sums := make([]float64, len(rows[lo]))
		for _, row := range rows[lo:hi] {
			for t := range sums {
				sums[t] += row[t]
			}
		}
		for t := range sums {
			sums[t] /= float64(hi - lo)
		}
		perReal[r] = sums
	}
	return perReal
}

// TestFreeListScratchServesSmallerGraph: a released scratch is the one the
// next sweeper gets, and the kernel state it grew on a 20 000-node sweep
// does not leak into a 400-node one. Not parallel: it owns the free list.
func TestFreeListScratchServesSmallerGraph(t *testing.T) {
	big, small := freeListTopo(t, 20_000), freeListTopo(t, 400)
	const sources, maxTTL = 70, 30
	discard := func(int, search.Result) {}

	first := newSweeper(3, 1)
	used := first.scratches[0]
	if err := first.FloodSources(0, sources, big, maxTTL, discard); err != nil {
		t.Fatal(err)
	}
	first.release()
	second := newSweeper(3, 1)
	if second.scratches[0] != used {
		t.Fatal("newSweeper did not take the released scratch")
	}
	defer second.release()

	ref := search.NewScratch(0)
	err := second.FloodSources(1, sources, small, maxTTL, func(s int, got search.Result) {
		want, err := ref.Flood(small, xrand.NewStream(3, 1, uint64(s)).Intn(small.N()), maxTTL)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Hits, want.Hits) {
			t.Fatalf("source %d on the reused scratch: hits %v, want %v", s, got.Hits, want.Hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreeListDropsFailedSweeper: the sweeper a sweep panicked on is
// replaced and never reaches the free list — neither its scratch nor its DES
// sim; the replacement, which finished cleanly, does, with both. Not
// parallel: it owns the free list.
func TestFreeListDropsFailedSweeper(t *testing.T) {
	var failed, clean *sweeper
	var failedSim, cleanSim *des.Sim
	err := runJob(Scale{Workers: 1, Realizations: 2, Run: testRC(1, 0)}, 99,
		func(r int, _ *builder) (int, error) { return r, nil },
		func(r, _ int, sw *sweeper) error {
			switch {
			case failed == nil:
				failed, failedSim = sw, sw.Sim(0)
				panic("injected sweep panic")
			case r == 1:
				clean, cleanSim = sw, sw.Sim(0)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if failed == nil || clean == nil || failed == clean || failedSim == cleanSim {
		t.Fatalf("test did not see both sweepers (failed %p, clean %p)", failed, clean)
	}
	laneFree.Lock()
	defer laneFree.Unlock()
	var scratches []*search.Scratch
	var sims []*des.Sim
	for _, sw := range laneFree.sweepers {
		scratches = append(scratches, sw.scratches...)
		sims = append(sims, sw.sims...)
	}
	if slices.Contains(scratches, failed.scratches[0]) || slices.Contains(sims, failedSim) {
		t.Fatal("the failed sweeper's scratch or sim was released to the free list")
	}
	if !slices.Contains(scratches, clean.scratches[0]) || !slices.Contains(sims, cleanSim) {
		t.Fatal("the cleanly finished sweeper's scratch or sim was not released")
	}
}
