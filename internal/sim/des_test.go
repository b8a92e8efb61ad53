package sim

// Spec-level pins for the DES specs (CI races these under -run '...DES...'):
// the schedule-invariance contract — DES figures are bit-for-bit identical
// for any Workers — and the CSR equivalence gate lifted from the kernel
// level to the full pipeline: a zero-latency, lossless DES sweep
// reproduces the CSR sweep series exactly, sources, aggregation, and all.

import (
	"reflect"
	"testing"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// desTinyScale sizes the schedule-invariance matrix: each spec runs once
// per budget, so it is smaller than tinyScale.
var desTinyScale = Scale{
	NSearch:      600,
	Realizations: 2,
	Sources:      3,
	MaxTTLFlood:  5,
	MaxTTLNF:     2,
}

// TestDESSpecsScheduleInvariant runs the DES specs under a serial, the
// automatic, and a skewed budget (3 over 2 realizations: lanes 2, width 2)
// and requires bit-identical figures — the (seed, realization, phase) /
// (seed, realization, source) determinism contract extended to the DES
// family.
func TestDESSpecsScheduleInvariant(t *testing.T) {
	t.Parallel()
	schedules := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"auto", 0},
		{"skewed", 3},
	}
	for _, spec := range []struct {
		name string
		run  SpecFunc
	}{
		{"desflood", DESFlood},
		{"deskwalk", DESKWalk},
		{"desfail", DESFail},
	} {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			var want []Figure
			for _, sched := range schedules {
				sc := desTinyScale
				sc.Workers = sched.workers
				figs, err := spec.run(sc, 777)
				if err != nil {
					t.Fatalf("%s: %v", sched.name, err)
				}
				if want == nil {
					want = figs
					continue
				}
				if !reflect.DeepEqual(figs, want) {
					t.Errorf("%s: figures differ from serial run", sched.name)
				}
			}
		})
	}
}

// TestDESFloodSweepMatchesCSR pins the pipeline-level equivalence gate for
// floods: a zero-latency, lossless desSweep must reproduce the CSR flood
// sweep's hits (searchSeries) and the per-source Scratch.Flood messages
// (perSourceFLRows) bit-for-bit — same topologies, same per-source
// streams, same aggregation.
func TestDESFloodSweepMatchesCSR(t *testing.T) {
	t.Parallel()
	const seed, maxTTL = 424242, 8
	factory := paTopo(800, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: maxTTL, sc: Scale{Sources: 5, Realizations: 2}}
	wantHits, err := searchSeries("fl", factory, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	rows := perSourceFLRows(t, factory, cfg, seed, flMsgs)
	wantMsgs, err := aggregate("fl", meanRows(blocksOf(rows, cfg.sc.Sources), 0, cfg.sc.Sources), 1)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := desSweep(cfg.sc, seed, factory, 0, 0, desSeries{"destest", 2, maxTTL + 1,
		func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
			return sim.Flood(f, src, des.Config{MaxTTL: maxTTL, Latency: lat}, rng)
		},
		func(m des.Metrics, rows [][]float64) {
			for h := 0; h <= maxTTL; h++ {
				rows[0][h] = float64(m.HitsWithin(h))
				rows[1][h] = float64(m.SentBelow(h))
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []Series{wantHits, wantMsgs} {
		got, err := aggregate("fl", blockRow(curves[0], i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("curve %d: DES sweep diverges from CSR sweep\n got: %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestDESKWalkSweepMatchesCSR is the same gate for k walkers: the DES sweep
// must match a CSR Scratch.KRandomWalks sweep run through the identical
// pipeline, source streams included.
func TestDESKWalkSweepMatchesCSR(t *testing.T) {
	t.Parallel()
	const seed, k, steps = 171717, 4, 25
	factory := paTopo(800, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: steps, sc: Scale{Sources: 5, Realizations: 2}}
	rows := make([][]float64, cfg.sc.Realizations*cfg.sc.Sources)
	err := runJob(cfg.sc, seed,
		factory,
		func(r int, f *graph.Frozen, sw *sweeper) error {
			return sw.Sources(uint64(r), cfg.sc.Sources, func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
				src := rng.Intn(f.N())
				res, err := scratch.KRandomWalks(f, src, k, steps, rng)
				if err != nil {
					return err
				}
				row := make([]float64, steps+1)
				for t := range row {
					row[t] = float64(res.HitsAt(t))
				}
				rows[r*cfg.sc.Sources+s] = row
				return nil
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	want, err := aggregate("kw", meanRows(blocksOf(rows, cfg.sc.Sources), 0, cfg.sc.Sources), 1)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := desSweep(cfg.sc, seed, factory, 0, 0, desSeries{"destest", 1, steps + 1,
		func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
			return sim.KWalk(f, src, k, steps, des.Config{Latency: lat}, rng)
		},
		func(m des.Metrics, rows [][]float64) {
			for h := 0; h <= steps; h++ {
				rows[0][h] = float64(m.HitsWithin(h))
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := aggregate("kw", blockRow(curves[0], 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DES k-walk sweep diverges from CSR sweep\n got: %+v\nwant: %+v", got, want)
	}
}
