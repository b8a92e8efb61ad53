package gen

import (
	"reflect"
	"testing"

	"scalefree/internal/graph"
)

// frozenFingerprint captures a snapshot's full state — insertion-order
// adjacency AND sorted membership ranges per node — so the direct-CSR and
// Graph+Freeze paths can be compared byte for byte through the public API.
func frozenFingerprint(f *graph.Frozen) [][2][]int32 {
	out := make([][2][]int32, f.N())
	for u := 0; u < f.N(); u++ {
		out[u] = [2][]int32{
			append([]int32(nil), f.Neighbors(u)...),
			append([]int32(nil), f.SortedNeighbors(u)...),
		}
	}
	return out
}

// TestCMFrozenMatchesLegacyFreeze pins the CM direct-CSR contract:
// CMFrozen is byte-identical to CMBuild+FreezePar — post-cleanup
// neighbor order, sorted ranges, edge count, Stats — at every worker
// count, with and without an arena.
func TestCMFrozenMatchesLegacyFreeze(t *testing.T) {
	t.Parallel()
	cfg := CMConfig{N: 7000, M: 2, KC: 80, Gamma: 2.2}
	arena := graph.NewCSRArena()
	builds := []struct {
		label string
		mk    func() Build
	}{
		{"phased-w1", func() Build { return NewBuild(phasesFor(21, 5), 1) }},
		{"phased-w4", func() Build { return NewBuild(phasesFor(21, 5), 4) }},
		{"phased-w7", func() Build { return NewBuild(phasesFor(21, 5), 7) }},
	}
	for _, tc := range builds {
		g, wantSt, err := CMBuild(cfg, tc.mk())
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		want := frozenFingerprint(g.FreezePar(1))
		wantM := g.M()
		for _, withArena := range []bool{false, true} {
			b := tc.mk()
			if withArena {
				b.Arena = arena
			}
			f, st, err := CMFrozen(cfg, b)
			if err != nil {
				t.Fatalf("%s arena=%v: %v", tc.label, withArena, err)
			}
			if st != wantSt {
				t.Fatalf("%s arena=%v: stats %+v, want %+v", tc.label, withArena, st, wantSt)
			}
			if f.M() != wantM {
				t.Fatalf("%s arena=%v: M=%d, want %d", tc.label, withArena, f.M(), wantM)
			}
			if !reflect.DeepEqual(want, frozenFingerprint(f)) {
				t.Fatalf("%s arena=%v: CMFrozen diverged from CMBuild+FreezePar", tc.label, withArena)
			}
		}
	}
}

// TestGRNFrozenMatchesLegacyFreeze pins the GRN direct-CSR contract:
// GRNFrozen is byte-identical to GRNBuild+Freeze (points included) at
// every worker count.
func TestGRNFrozenMatchesLegacyFreeze(t *testing.T) {
	t.Parallel()
	cfg := GRNConfig{N: 9000, MeanDegree: 10}
	arena := graph.NewCSRArena()
	builds := []struct {
		label string
		mk    func() Build
	}{
		{"phased-w1", func() Build { return NewBuild(phasesFor(8, 2), 1) }},
		{"phased-w4", func() Build { return NewBuild(phasesFor(8, 2), 4) }},
	}
	for _, tc := range builds {
		g, wantPts, err := GRNBuild(cfg, tc.mk())
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		want := frozenFingerprint(g.Freeze())
		for _, withArena := range []bool{false, true} {
			b := tc.mk()
			if withArena {
				b.Arena = arena
			}
			f, pts, err := GRNFrozen(cfg, b)
			if err != nil {
				t.Fatalf("%s arena=%v: %v", tc.label, withArena, err)
			}
			if !reflect.DeepEqual(wantPts, pts) {
				t.Fatalf("%s arena=%v: points diverged", tc.label, withArena)
			}
			if f.M() != g.M() {
				t.Fatalf("%s arena=%v: M=%d, want %d", tc.label, withArena, f.M(), g.M())
			}
			if !reflect.DeepEqual(want, frozenFingerprint(f)) {
				t.Fatalf("%s arena=%v: GRNFrozen diverged from GRNBuild+Freeze", tc.label, withArena)
			}
		}
	}
}

// TestFrozenBuildArenaAcrossRealizations pins the pooling contract at the
// gen level: one arena serving a back-to-back mix of CM and GRN builds
// (the pipeline build-worker pattern) yields snapshots identical to
// fresh-allocation builds.
func TestFrozenBuildArenaAcrossRealizations(t *testing.T) {
	t.Parallel()
	arena := graph.NewCSRArena()
	for r := uint64(0); r < 4; r++ {
		cmCfg := CMConfig{N: 3000 + int(r)*500, M: 1 + int(r%2), Gamma: 2.5}
		fresh, freshSt, err := CMFrozen(cmCfg, NewBuild(phasesFor(3, r), 2))
		if err != nil {
			t.Fatal(err)
		}
		pooled, pooledSt, err := CMFrozen(cmCfg, Build{Phases: phasesFor(3, r), Workers: 2, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		if freshSt != pooledSt || !reflect.DeepEqual(frozenFingerprint(fresh), frozenFingerprint(pooled)) {
			t.Fatalf("realization %d: CM arena build diverged", r)
		}
		grnCfg := GRNConfig{N: 2000 + int(r)*700, MeanDegree: 10}
		gFresh, _, err := GRNFrozen(grnCfg, NewBuild(phasesFor(4, r), 2))
		if err != nil {
			t.Fatal(err)
		}
		gPooled, _, err := GRNFrozen(grnCfg, Build{Phases: phasesFor(4, r), Workers: 2, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(frozenFingerprint(gFresh), frozenFingerprint(gPooled)) {
			t.Fatalf("realization %d: GRN arena build diverged", r)
		}
	}
}
