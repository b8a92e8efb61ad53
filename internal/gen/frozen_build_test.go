package gen

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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

// cmGraphReference is the configuration model as a Graph build: CMFrozen's
// shuffled stub pairs wired edge by edge, cleaned up by Graph.Simplify and
// frozen — the reference CMFrozen's scatter and replay are held to.
func cmGraphReference(t *testing.T, cfg CMConfig, b Build) (*graph.Frozen, Stats) {
	t.Helper()
	stubs, err := cmShuffledStubs(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(cfg.N)
	for i := 0; i+1 < len(stubs); i += 2 {
		mustEdge(g, int(stubs[i]), int(stubs[i+1]))
	}
	var st Stats
	st.SelfLoopsRemoved, st.MultiEdgesRemoved = g.Simplify()
	return g.Freeze(), st
}

// grnGraphReference is the geometric random network as a serial Graph
// build: every node's radius scan added edge by edge, then frozen — the
// reference GRNFrozen's chunked emission and finalize are held to.
func grnGraphReference(t *testing.T, cfg GRNConfig, b Build) (*graph.Frozen, []Point) {
	t.Helper()
	grid, err := grnGridFor(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(cfg.N)
	var nbr []int32
	for i := 0; i < cfg.N; i++ {
		nbr = grid.scanNode(i, nbr[:0])
		for _, j := range nbr {
			mustEdge(g, i, int(j))
		}
	}
	return g.Freeze(), grid.pts
}

// TestCMFrozenMatchesLegacyFreeze pins the CM direct-CSR contract:
// CMFrozen is byte-identical to cmGraphReference — post-cleanup neighbor
// order, sorted ranges, edge count, Stats — at every worker count, with
// and without an arena.
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
		ref, wantSt := cmGraphReference(t, cfg, tc.mk())
		want := frozenFingerprint(ref)
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
			if f.M() != ref.M() {
				t.Fatalf("%s arena=%v: M=%d, want %d", tc.label, withArena, f.M(), ref.M())
			}
			if !reflect.DeepEqual(want, frozenFingerprint(f)) {
				t.Fatalf("%s arena=%v: CMFrozen diverged from the Graph reference", tc.label, withArena)
			}
		}
	}
}

// TestGRNFrozenMatchesLegacyFreeze pins the GRN direct-CSR contract:
// GRNFrozen is byte-identical to grnGraphReference (points included) at
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
		ref, wantPts := grnGraphReference(t, cfg, tc.mk())
		want := frozenFingerprint(ref)
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
			if f.M() != ref.M() {
				t.Fatalf("%s arena=%v: M=%d, want %d", tc.label, withArena, f.M(), ref.M())
			}
			if !reflect.DeepEqual(want, frozenFingerprint(f)) {
				t.Fatalf("%s arena=%v: GRNFrozen diverged from the Graph reference", tc.label, withArena)
			}
		}
	}
}

// TestFrozenBuildArenaAcrossRealizations pins the lending contract at the
// gen level: one arena serving an interleaved run of every generator a
// build lane runs — PA, HAPA, DAPA (one and two workers), CM and GRN —
// whose N, m and kc shrink as well as grow, yields build for build the
// digest and Stats of a build with no arena. Each growth build's graph is
// frozen on the arena, as the engine does, before the next build resets
// it; DAPA's ID maps must match too. Every build refills the snapshot the
// previous one returned, retired into the arena as the engine retires a
// swept one — every other one after a HasEdge built its membership ranges
// — and the refilled snapshot must answer HasEdge as the fresh one does.
func TestFrozenBuildArenaAcrossRealizations(t *testing.T) {
	t.Parallel()
	subs := make([]*graph.Frozen, 2)
	for i, n := range []int{1500, 900} {
		f, _, err := GRNFrozen(GRNConfig{N: n, MeanDegree: 10}, NewBuild(phasesFor(5, uint64(i)), 1))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = f
	}
	type step struct {
		name    string
		workers int
		build   func(b Build) (*graph.Frozen, Stats, []int, error)
	}
	growth := func(b Build, g *graph.Graph, st Stats, err error) (*graph.Frozen, Stats, []int, error) {
		if err != nil {
			return nil, st, nil, err
		}
		return b.Arena.Freeze(g, 1), st, nil, nil
	}
	pa := func(n, m, kc int) step {
		return step{fmt.Sprintf("PA N=%d m=%d kc=%d", n, m, kc), 1, func(b Build) (*graph.Frozen, Stats, []int, error) {
			g, st, err := PABuild(PAConfig{N: n, M: m, KC: kc}, b)
			return growth(b, g, st, err)
		}}
	}
	hapa := func(n, m, kc int) step {
		return step{fmt.Sprintf("HAPA N=%d m=%d kc=%d", n, m, kc), 1, func(b Build) (*graph.Frozen, Stats, []int, error) {
			g, st, err := HAPABuild(HAPAConfig{N: n, M: m, KC: kc}, b)
			return growth(b, g, st, err)
		}}
	}
	dapa := func(sub *graph.Frozen, workers, n, m, kc, tau int) step {
		name := fmt.Sprintf("DAPA Ns=%d W=%d N=%d m=%d kc=%d tau=%d", sub.N(), workers, n, m, kc, tau)
		return step{name, workers, func(b Build) (*graph.Frozen, Stats, []int, error) {
			ov, st, err := DAPABuild(sub, DAPAConfig{NOverlay: n, M: m, KC: kc, TauSub: tau}, b)
			if err != nil {
				return nil, st, nil, err
			}
			// One slice holds both maps, so a mismatch in either shows.
			return b.Arena.Freeze(ov.G, 1), st, append(append([]int(nil), ov.SubstrateID...), ov.OverlayID...), nil
		}}
	}
	cm := func(workers, n, m, kc int) step {
		return step{fmt.Sprintf("CM W=%d N=%d m=%d kc=%d", workers, n, m, kc), workers, func(b Build) (*graph.Frozen, Stats, []int, error) {
			f, st, err := CMFrozen(CMConfig{N: n, M: m, KC: kc, Gamma: 2.5}, b)
			return f, st, nil, err
		}}
	}
	grn := func(workers, n int) step {
		return step{fmt.Sprintf("GRN W=%d N=%d", workers, n), workers, func(b Build) (*graph.Frozen, Stats, []int, error) {
			f, _, err := GRNFrozen(GRNConfig{N: n, MeanDegree: 10}, b)
			return f, Stats{}, nil, err
		}}
	}
	steps := []step{
		pa(2000, 2, 10),
		hapa(1500, 3, 50),
		dapa(subs[0], 1, 800, 2, 10, 4),
		cm(2, 3000, 2, 80),
		pa(800, 1, NoCutoff),
		dapa(subs[0], 2, 1200, 3, NoCutoff, 2),
		grn(2, 2500),
		hapa(600, 1, 10),
		dapa(subs[1], 1, 400, 1, 5, 10),
		pa(2500, 3, 50),
		cm(1, 1500, 1, 40),
		hapa(2200, 2, NoCutoff),
		dapa(subs[1], 2, 700, 2, 20, 3),
		grn(1, 1200),
		hapa(900, 3, 10),
		dapa(subs[0], 1, 1000, 2, 50, 50),
	}
	arena := graph.NewCSRArena()
	var retired *graph.Frozen
	for r, s := range steps {
		phases := phasesFor(3, uint64(r))
		want, wantSt, wantIDs, err := s.build(NewBuild(phases, s.workers))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if retired != nil && r%2 == 0 {
			retired.HasEdge(0, 1)
		}
		arena.Recycle(retired)
		got, st, ids, err := s.build(Build{Phases: phases, Workers: s.workers, Arena: arena})
		if err != nil {
			t.Fatalf("%s on the arena: %v", s.name, err)
		}
		arena.Reclaim() // a retired snapshot too small to refill
		if st != wantSt {
			t.Fatalf("%s: stats %+v on the arena, %+v without", s.name, st, wantSt)
		}
		if frozenDigest(got) != frozenDigest(want) || got.M() != want.M() || !slices.Equal(ids, wantIDs) {
			t.Fatalf("%s: the arena build diverged from a build without one", s.name)
		}
		for u := 0; u < want.N(); u++ {
			probes := []int{u + 1, (u * 7) % want.N()}
			if want.Degree(u) > 0 {
				probes = append(probes, want.NeighborAt(u, 0))
			}
			for _, v := range probes {
				if got.HasEdge(u, v) != want.HasEdge(u, v) {
					t.Fatalf("%s: HasEdge(%d, %d) = %v on the refilled snapshot", s.name, u, v, got.HasEdge(u, v))
				}
			}
		}
		retired = got
	}
}

// TestArenaSteadyStateAllocs pins a build lane's steady state: once one
// build has warmed an arena, a second PABuild, HAPABuild or DAPABuild of
// the same config, frozen on the arena, or CMFrozen, each refilling the
// snapshot the previous build returned (retired into the arena, as the
// engine retires a swept one), allocates a few objects and bytes — phase
// streams, result headers — within bounds that hold at every N, instead of
// the per-node rows, ID maps, scratch and snapshot arrays a build without
// an arena allocates (about 1 600 objects for one HAPA build at N = 850).
// CM's bounds are its measured 14 objects and 720 B (704 B without
// -race): the pair stream is scattered where it lies, so a returning
// chunk-buffer builder fails them, and the degree table is the engine's
// shared one, so a build that draws from a table of its own (17 objects,
// 1 120 B) fails them too. It is not
// parallel: it counts the whole process's mallocs. Each of three rounds
// reads one warm build, and the smallest reading is checked, so an
// allocation the race detector or the runtime makes meanwhile does not
// count against the build.
func TestArenaSteadyStateAllocs(t *testing.T) {
	sub, _, err := GRNFrozen(GRNConfig{N: 3200, MeanDegree: 10}, NewBuild(phasesFor(6, 0), 1))
	if err != nil {
		t.Fatal(err)
	}
	// The default bytes bound is below one N = 400 snapshot's offsets
	// array (1 604 B), so a freeze that allocates either array fails it.
	const warmBytes = 1536
	cases := []struct {
		name  string
		limit uint64
		bytes uint64
		build func(n int, b Build) (*graph.Frozen, error)
	}{
		{"PA", 4, warmBytes, func(n int, b Build) (*graph.Frozen, error) {
			g, _, err := PABuild(PAConfig{N: n, M: 2, KC: 10}, b)
			if err != nil {
				return nil, err
			}
			return b.Arena.Freeze(g, 1), nil
		}},
		{"HAPA", 4, warmBytes, func(n int, b Build) (*graph.Frozen, error) {
			g, _, err := HAPABuild(HAPAConfig{N: n, M: 2, KC: 10}, b)
			if err != nil {
				return nil, err
			}
			return b.Arena.Freeze(g, 1), nil
		}},
		{"DAPA", 16, warmBytes, func(n int, b Build) (*graph.Frozen, error) {
			ov, _, err := DAPABuild(sub, DAPAConfig{NOverlay: n, M: 2, KC: 10, TauSub: 4}, b)
			if err != nil {
				return nil, err
			}
			return b.Arena.Freeze(ov.G, 1), nil
		}},
		{"CM", 14, 720, func(n int, b Build) (*graph.Frozen, error) {
			f, _, err := CMFrozen(CMConfig{N: n, M: 2, KC: 40, Gamma: 2.5}, b)
			return f, err
		}},
	}
	for _, c := range cases {
		for _, n := range []int{400, 1600} {
			b := Build{Phases: phasesFor(9, 1), Workers: 1, Arena: graph.NewCSRArena()}
			last, err := c.build(n, b)
			if err != nil {
				t.Fatalf("%s N=%d: %v", c.name, n, err)
			}
			// Each round reads the whole process's counters around one
			// warm build, so a stray allocation elsewhere (the race
			// detector's, say) can inflate a round; the smallest of three
			// readings is the build's own.
			allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.Arena.Recycle(last)
				if last, err = c.build(n, b); err != nil {
					t.Fatalf("%s N=%d: %v", c.name, n, err)
				}
				runtime.ReadMemStats(&after)
				if b.Arena.Reclaim() != nil {
					t.Fatalf("%s N=%d: the build left the retired snapshot unused", c.name, n)
				}
				allocs = min(allocs, after.Mallocs-before.Mallocs)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			}
			if allocs > c.limit {
				t.Errorf("%s N=%d: %v allocations per warm build, want at most %v", c.name, n, allocs, c.limit)
			}
			if bytes > c.bytes {
				t.Errorf("%s N=%d: %d B allocated per warm build, want at most %d", c.name, n, bytes, c.bytes)
			}
		}
	}
}

// TestCMWorkingSetIsOneStubArray pins what a CM build holds: besides the
// snapshot, whose neighbor array is scattered at multigraph size and
// compacted in place, only the shuffled stub array the scatter reads
// where it lies, plus node-sized scratch (degree sequence, scatter
// positions, replay marks, the degree table at 8 B per degree in range).
// Built without an arena, where every buffer is a fresh allocation and
// the build draws from a table of its own, a build therefore allocates
// under two stub arrays and ten int32 node arrays; a returning chunk
// copy of the stream, multigraph staging array or sorted dedup copy adds
// a third stub-length array and fails. An unmeasured stub draw sizes the
// bound. It is not parallel: it counts the whole process's allocation.
func TestCMWorkingSetIsOneStubArray(t *testing.T) {
	for _, cfg := range []CMConfig{
		{N: 20000, M: 2, KC: NoCutoff, Gamma: 2.2},
		{N: 5000, M: 2, KC: 40, Gamma: 2.5},
		{N: 3000, M: 3, KC: NoCutoff, Gamma: 3},
	} {
		b := Build{Phases: phasesFor(9, 1), Workers: 1}
		stubs, err := cmShuffledStubs(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		stubBytes := 4 * len(stubs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := CMFrozen(cfg, b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*stubBytes+10*4*cfg.N); got > limit {
			t.Errorf("%+v: %d B allocated per build, want at most %d (two %d B stub arrays and ten node arrays)", cfg, got, limit, stubBytes)
		}
	}
}
