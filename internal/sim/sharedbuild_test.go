package sim

// Tests for one build serving several journaled series (realizationBlocks
// over a series list): the DES specs build each realization once for all
// their knob series, every series' curves equal its own single-series
// sweep, progress and journal records stay per (series, realization), and
// a resume or a retry rebuilds a realization only to sweep the series it
// is still missing.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// floodSeries is a DES flood series sampling hits and messages within each
// hop; plan (may be nil) schedules its failures.
func floodSeries(tag string, maxTTL int, loss float64, plan func(ph xrand.Phases) des.FailPlan) desSeries {
	return desSeries{tag, 2, maxTTL + 1,
		func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
			cfg := des.Config{MaxTTL: maxTTL, Latency: lat, Loss: loss}
			if plan != nil {
				cfg.Fail = plan(lat.Phases)
			}
			return sim.Flood(f, src, cfg, rng)
		},
		func(m des.Metrics, rows [][]float64) {
			for h := 0; h <= maxTTL; h++ {
				rows[0][h] = float64(m.HitsWithin(h))
				rows[1][h] = float64(m.SentBelow(h))
			}
		}}
}

// kwalkSeries is a DES k-walk series under node crashes of fraction frac.
func kwalkSeries(tag string, steps int, frac float64) desSeries {
	return desSeries{tag, 1, steps + 1,
		func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
			fail := des.FailPlan{NodeFrac: frac, MTBF: 2, Phases: lat.Phases}
			return sim.KWalk(f, src, 4, steps, des.Config{Latency: lat, Fail: fail}, rng)
		},
		func(m des.Metrics, rows [][]float64) {
			for h := 0; h <= steps; h++ {
				rows[0][h] = float64(m.HitsWithin(h))
			}
		}}
}

// TestSharedBuildMatchesSingleSeriesSweeps runs k series over one build per
// realization: the factory runs exactly R times, and each series' curves
// equal its own single-series desSweep bit for bit — desflood's three loss
// rates, and a desfail-shaped set whose flood and k-walk rows differ in
// length.
func TestSharedBuildMatchesSingleSeriesSweeps(t *testing.T) {
	t.Parallel()
	const seed, maxTTL, steps = 606, 6, 20
	factory := paTopo(500, 2, gen.NoCutoff)
	nodes := func(frac float64) func(xrand.Phases) des.FailPlan {
		return func(ph xrand.Phases) des.FailPlan { return des.FailPlan{NodeFrac: frac, MTBF: 2, Phases: ph} }
	}
	links := func(frac float64) func(xrand.Phases) des.FailPlan {
		return func(ph xrand.Phases) des.FailPlan { return des.FailPlan{LinkFrac: frac, MTBF: 2, Phases: ph} }
	}
	for _, tc := range []struct {
		name   string
		series []desSeries
	}{
		{"desflood", []desSeries{
			floodSeries("lossless", maxTTL, 0, nil),
			floodSeries("loss=2%", maxTTL, 0.02, nil),
			floodSeries("loss=10%", maxTTL, 0.10, nil),
		}},
		{"desfail", []desSeries{
			floodSeries("node 0", maxTTL, 0, nodes(0)),
			floodSeries("link 0", maxTTL, 0, links(0)),
			kwalkSeries("kwalk 0", steps, 0),
			floodSeries("node 30", maxTTL, 0, nodes(0.3)),
			floodSeries("link 30", maxTTL, 0, links(0.3)),
			kwalkSeries("kwalk 30", steps, 0.3),
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := Scale{Sources: 4, Realizations: 3, Workers: 3}
			var builds atomic.Int64
			shared, err := desSweep(sc, seed, countingFactory(factory, &builds), 1, 1, tc.series...)
			if err != nil {
				t.Fatal(err)
			}
			if got := builds.Load(); got != int64(sc.Realizations) {
				t.Fatalf("%d series built %d topologies, want one per realization (%d)", len(tc.series), got, sc.Realizations)
			}
			for i, s := range tc.series {
				alone, err := desSweep(sc, seed, factory, 1, 1, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(shared[i], alone[0]) {
					t.Errorf("series %q: shared-build curves differ from its own sweep", s.tag)
				}
			}
		})
	}
}

// TestSharedBuildDESSpecsBuildOncePerRealization runs each DES spec
// journaled at desTinyScale: its k series build R topologies, not k·R,
// while progress still counts a build and a sweep per (series,
// realization) and the journal holds one record per (series, realization).
func TestSharedBuildDESSpecsBuildOncePerRealization(t *testing.T) {
	t.Parallel()
	for _, spec := range []struct {
		name   string
		run    func(Scale, uint64, topoFactory) ([]Figure, error)
		series int
	}{
		{"desflood", desFlood, 3},
		{"deskwalk", desKWalk, 9},
		{"desfail", desFail, 12},
	} {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			const seed = 777
			path := filepath.Join(t.TempDir(), spec.name+".journal")
			j, err := OpenJournal(path, spec.name, seed, desTinyScale, false)
			if err != nil {
				t.Fatal(err)
			}
			sc := desTinyScale
			sc.Run = NewRunControl(context.Background(), 0, 0, j)
			var builds atomic.Int64
			if _, err := spec.run(sc, seed, countingFactory(paTopo(sc.NSearch, 2, gen.NoCutoff), &builds)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			R := int64(sc.Realizations)
			if got := builds.Load(); got != R {
				t.Errorf("built %d topologies, want %d (one per realization, not one per series)", got, R)
			}
			if got, want := sc.Run.Progress(), 2*int64(spec.series)*R; got != want {
				t.Errorf("Progress() = %d, want %d (a build and a sweep per series and realization)", got, want)
			}
			written, err := OpenJournal(path, spec.name, seed, desTinyScale, true)
			if err != nil {
				t.Fatal(err)
			}
			defer written.Close()
			if got, want := written.Resumed(), spec.series*sc.Realizations; got != want {
				t.Errorf("journal holds %d records, want %d", got, want)
			}
		})
	}
}

// TestSharedBuildResumesPartlyJournaledRealizations cuts desflood journals
// so that some realizations hold some but not all of their series: the
// series-major fixture written before builds were shared, cut inside its
// second series, and a serial run's realization-major journal, cut inside
// its second realization. Resume must publish the golden figures, rebuild
// exactly the realizations missing a series, and append exactly the
// missing records.
func TestSharedBuildResumesPartlyJournaledRealizations(t *testing.T) {
	t.Parallel()
	const seed, series = 12345, 3
	R := tinyScale.Realizations
	factory := paTopo(tinyScale.NSearch, 2, gen.NoCutoff)
	fixture := filepath.Join("testdata", "parent_desflood.journal")
	parent, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "fresh.journal")
	j, err := OpenJournal(fresh, "desflood", seed, tinyScale, false)
	if err != nil {
		t.Fatal(err)
	}
	// One lane: a sweep worker lands its realization's series together, so
	// only a serial run writes strictly realization-major records.
	sc := tinyScale
	sc.Workers = 1
	sc.Run = NewRunControl(context.Background(), 0, 0, j)
	if _, err := DESFlood(sc, seed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		image   []byte
		kept    int // records left after the cut
		missing int // realizations the cut leaves short of a series
	}{
		// Series-major: every realization lacks the third series.
		{"series-major fixture", parent, R + 1, R},
		// Realization-major: realization 0 is whole.
		{"realization-major", current, series + 1, R - 1},
	} {
		path := filepath.Join(t.TempDir(), "cut.journal")
		cut := tc.image[:recordEnds(t, tc.image)[tc.kept]]
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := InspectJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		perReal := make([]int, R)
		for _, rec := range before.Records {
			perReal[rec.Realization]++
		}
		missing := 0
		for _, n := range perReal {
			if n < series {
				missing++
			}
		}
		if missing != tc.missing {
			t.Fatalf("%s: %d realizations miss a series after the cut, want %d", tc.name, missing, tc.missing)
		}

		j, err := OpenJournal(path, "desflood", seed, tinyScale, true)
		if err != nil {
			t.Fatal(err)
		}
		sc := tinyScale
		sc.Run = NewRunControl(context.Background(), 0, 0, j)
		var builds atomic.Int64
		figs, err := desFlood(sc, seed, countingFactory(factory, &builds))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := figuresDigest(t, figs); got != specDigests["desflood"] {
			t.Errorf("%s: resumed run published %#x, want %#x", tc.name, got, specDigests["desflood"])
		}
		if got := builds.Load(); got != int64(missing) {
			t.Errorf("%s: rebuilt %d realizations, want the %d missing a series", tc.name, got, missing)
		}
		appended := series*R - tc.kept
		if got, want := sc.Run.Progress(), int64(tc.kept+2*appended); got != want {
			t.Errorf("%s: Progress() = %d, want %d", tc.name, got, want)
		}
		after, err := InspectJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		image, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(image, cut) {
			t.Fatalf("%s: resume rewrote the journaled records (err %v)", tc.name, err)
		}
		keys := make(map[JournalRecordInfo]bool)
		for _, rec := range after.Records {
			keys[rec] = true
		}
		if len(after.Records) != series*R || len(keys) != series*R {
			t.Errorf("%s: journal holds %d records under %d keys, want %d of each", tc.name, len(after.Records), len(keys), series*R)
		}
	}
	if again, err := os.ReadFile(fixture); err != nil || !bytes.Equal(again, parent) {
		t.Fatalf("the fixture changed (err %v)", err)
	}
}

// TestSharedBuildPanicInSecondSeriesRetried panics once in the second
// series' sweep of a realization, after the first series has landed it. The
// retry rebuilds the realization and sweeps only the series still missing
// it, so the curves match a never-failed run and each (series,
// realization) record is appended exactly once — to a local journal and to
// a distributed worker's sink.
func TestSharedBuildPanicInSecondSeriesRetried(t *testing.T) {
	t.Parallel()
	const seed, maxTTL, R, trip = 919, 6, 3, 1
	factory := paTopo(500, 2, gen.NoCutoff)
	sc := Scale{Sources: 4, Realizations: R}
	// withPanic is the desflood-shaped series list whose second series
	// panics on the first source of realization `trip` it meets, once per
	// tripped flag.
	withPanic := func(tripped *atomic.Bool) []desSeries {
		series := []desSeries{
			floodSeries("a", maxTTL, 0, nil),
			floodSeries("b", maxTTL, 0.02, nil),
			floodSeries("c", maxTTL, 0.10, nil),
		}
		run := series[1].run
		series[1].run = func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
			if lat.Phases.Realization == trip && tripped.CompareAndSwap(false, true) {
				panic("injected panic in the second series")
			}
			return run(sim, f, lat, src, rng)
		}
		return series
	}
	var never atomic.Bool
	never.Store(true)
	baseline, err := desSweep(sc, seed, factory, 1, 1, withPanic(&never)...)
	if err != nil {
		t.Fatal(err)
	}
	// once fails a test for any (series, realization) record seen twice.
	once := func(t *testing.T, name string, recs []JournalRecordInfo) {
		t.Helper()
		seen := make(map[JournalRecordInfo]bool)
		for _, rec := range recs {
			if seen[rec] {
				t.Errorf("%s: record (sub %#x, r %d) appended twice", name, rec.Sub, rec.Realization)
			}
			seen[rec] = true
		}
		if len(seen) != 3*R {
			t.Errorf("%s: %d distinct records, want %d", name, len(seen), 3*R)
		}
	}

	t.Run("journal", func(t *testing.T) {
		t.Parallel()
		path := filepath.Join(t.TempDir(), "panic.journal")
		j, err := OpenJournal(path, "desflood", seed, testScaleTiny(), false)
		if err != nil {
			t.Fatal(err)
		}
		var tripped atomic.Bool
		var builds atomic.Int64
		jsc := sc
		jsc.Run = NewRunControl(context.Background(), 1, 0, j)
		got, err := desSweep(jsc, seed, countingFactory(factory, &builds), 1, 1, withPanic(&tripped)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if !tripped.Load() {
			t.Fatal("injected panic never fired")
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatal("retried shared-build sweep differs from baseline")
		}
		if got, want := builds.Load(), int64(R+1); got != want {
			t.Errorf("factory ran %d times, want %d (one rebuild for the retried realization)", got, want)
		}
		if jsc.Run.Recovered() != 1 {
			t.Errorf("Recovered() = %d, want 1", jsc.Run.Recovered())
		}
		info, err := InspectJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		once(t, "journal", info.Records)
	})

	t.Run("worker sink", func(t *testing.T) {
		t.Parallel()
		fleet, err := OpenJournal(filepath.Join(t.TempDir(), "fleet.journal"), "desflood", seed, testScaleTiny(), false)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var recs []JournalRecordInfo
		var tripped atomic.Bool
		for r := 0; r < R; r++ {
			wsc := sc
			wsc.Run = NewWorkerRunControl(context.Background(), 1, r, func(rec SlotRecord) {
				mu.Lock()
				defer mu.Unlock()
				recs = append(recs, JournalRecordInfo{Kind: rec.Kind, Stream: rec.Stream, Sub: rec.Sub, Realization: rec.Realization})
				if _, err := fleet.Accept(rec); err != nil {
					t.Errorf("worker %d: %v", r, err)
				}
			})
			if _, err := desSweep(wsc, seed, factory, 1, 1, withPanic(&tripped)...); err != nil {
				t.Fatalf("worker %d: %v", r, err)
			}
		}
		if !tripped.Load() {
			t.Fatal("injected panic never fired")
		}
		once(t, "sink", recs)
		// The coordinator's reduction replays every record and builds nothing.
		var builds atomic.Int64
		rsc := sc
		rsc.Run = NewRunControl(context.Background(), 0, 0, fleet)
		got, err := desSweep(rsc, seed, countingFactory(factory, &builds), 1, 1, withPanic(&never)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Close(); err != nil {
			t.Fatal(err)
		}
		if builds.Load() != 0 {
			t.Errorf("reducing the workers' records built %d topologies", builds.Load())
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatal("reduction of the workers' records differs from baseline")
		}
	})
}
