package gen

import (
	"reflect"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// graphFingerprint captures a graph's full adjacency structure, insertion
// order included, so two builds can be compared bit for bit.
func graphFingerprint(t *testing.T, g *graph.Graph) [][]int32 {
	t.Helper()
	out := make([][]int32, g.N())
	for u := 0; u < g.N(); u++ {
		out[u] = append([]int32(nil), g.Neighbors(u)...)
	}
	return out
}

func phasesFor(seed, realization uint64) xrand.Phases {
	return xrand.Phases{Seed: seed, Realization: realization}
}

// seedBuild is the serial build of realization 0 at seed.
func seedBuild(seed uint64) Build { return NewBuild(phasesFor(seed, 0), 1) }

// TestCMBuildWorkerInvariance pins the chunked-degree contract: a phased
// CM build yields the identical snapshot (and Stats) for every Workers
// value.
func TestCMBuildWorkerInvariance(t *testing.T) {
	t.Parallel()
	cfg := CMConfig{N: 9000, M: 2, KC: 60, Gamma: 2.5}
	build := func(workers int) ([][2][]int32, Stats) {
		f, st, err := CMFrozen(cfg, NewBuild(phasesFor(11, 3), workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return frozenFingerprint(f), st
	}
	wantG, wantSt := build(1)
	for _, w := range []int{2, 4, 7} {
		g, st := build(w)
		if !reflect.DeepEqual(wantG, g) {
			t.Fatalf("CM graph differs between Workers=1 and Workers=%d", w)
		}
		if st != wantSt {
			t.Fatalf("CM stats differ between Workers=1 and Workers=%d: %+v vs %+v", w, wantSt, st)
		}
	}
}

// TestGRNBuildWorkerInvariance pins the GRN contract: chunked placement
// and parallel radius queries yield identical points and edges for every
// Workers value.
func TestGRNBuildWorkerInvariance(t *testing.T) {
	t.Parallel()
	cfg := GRNConfig{N: 9000, MeanDegree: 10}
	build := func(workers int) ([][2][]int32, []Point) {
		f, pts, err := GRNFrozen(cfg, NewBuild(phasesFor(5, 1), workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return frozenFingerprint(f), pts
	}
	wantG, wantPts := build(1)
	for _, w := range []int{2, 4, 7} {
		g, pts := build(w)
		if !reflect.DeepEqual(wantPts, pts) {
			t.Fatalf("GRN points differ between Workers=1 and Workers=%d", w)
		}
		if !reflect.DeepEqual(wantG, g) {
			t.Fatalf("GRN graph differs between Workers=1 and Workers=%d", w)
		}
	}
}

// TestDAPABuildWorkerInvariance pins the batched-flood contract: a phased
// DAPA build — candidate lookahead, parallel horizon floods — yields the
// identical overlay (mapping, adjacency, Stats) for every Workers value.
func TestDAPABuildWorkerInvariance(t *testing.T) {
	t.Parallel()
	fsub, _, err := GRNFrozen(GRNConfig{N: 4000, MeanDegree: 10}, seedBuild(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []int{2, 10} {
		cfg := DAPAConfig{NOverlay: 1500, M: 2, KC: 40, TauSub: tau}
		build := func(workers int) ([][]int32, []int, Stats) {
			ov, st, err := DAPABuild(fsub, cfg, NewBuild(phasesFor(13, 2), workers))
			if err != nil {
				t.Fatalf("tau=%d workers=%d: %v", tau, workers, err)
			}
			return graphFingerprint(t, ov.G), ov.SubstrateID, st
		}
		wantG, wantIDs, wantSt := build(1)
		for _, w := range []int{2, 4} {
			g, ids, st := build(w)
			if !reflect.DeepEqual(wantIDs, ids) {
				t.Fatalf("tau=%d: DAPA join order differs between Workers=1 and Workers=%d", tau, w)
			}
			if !reflect.DeepEqual(wantG, g) {
				t.Fatalf("tau=%d: DAPA overlay differs between Workers=1 and Workers=%d", tau, w)
			}
			if st != wantSt {
				t.Fatalf("tau=%d: DAPA stats differ between Workers=1 and Workers=%d: %+v vs %+v", tau, w, wantSt, st)
			}
		}
	}
}

// TestStubListParallelMatchesSerial pins the stub expansion on both paths.
func TestStubListParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	seq := powerLawDegreeSequence(20000, 1, 100, 2.3, seedBuild(9))
	serial := stubList(seq, seedBuild(0))
	par := stubList(seq, NewBuild(phasesFor(0, 0), 4))
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel stub list diverged from serial expansion")
	}
}
