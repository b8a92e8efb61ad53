package gen

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

func TestCMValidation(t *testing.T) {
	t.Parallel()
	cases := []CMConfig{
		{N: 100, M: 0, Gamma: 2.5},
		{N: 1, M: 1, Gamma: 2.5},
		{N: 100, M: 1, Gamma: 1.0},
		{N: 100, M: 1, Gamma: math.NaN()},
		{N: 100, M: 3, KC: 2, Gamma: 2.5},
	}
	for _, cfg := range cases {
		if _, _, err := CMFrozen(cfg, seedBuild(1)); err == nil {
			t.Errorf("CMFrozen(%+v) should have failed validation", cfg)
		}
	}
}

func TestCMSimpleGraphAfterCleanup(t *testing.T) {
	t.Parallel()
	g, st, err := CMFrozen(CMConfig{N: 5000, M: 2, KC: 100, Gamma: 2.5}, seedBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if g.HasEdge(u, u) {
			t.Fatalf("self-loop survived at %d", u)
		}
	}
	if st.SelfLoopsRemoved == 0 && st.MultiEdgesRemoved == 0 {
		t.Log("no loops/multi-edges occurred (possible but unusual at this size)")
	}
	if g.TotalDegree() != 2*g.M() {
		t.Fatal("degree sum inconsistent with edge count")
	}
}

func TestCMDegreesRespectCutoff(t *testing.T) {
	t.Parallel()
	const kc = 40
	g, _, err := CMFrozen(CMConfig{N: 10000, M: 1, KC: kc, Gamma: 2.2}, seedBuild(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > kc {
		t.Fatalf("max degree %d > kc=%d", g.MaxDegree(), kc)
	}
}

func TestCMExponentRecovered(t *testing.T) {
	t.Parallel()
	// Fig 2: CM "does not allow changes in the degree distribution
	// exponent" — the generated network must match the prescribed gamma.
	for _, gamma := range []float64{2.2, 3.0} {
		var degrees []int
		for seed := uint64(0); seed < 3; seed++ {
			g, _, err := CMFrozen(CMConfig{N: 20000, M: 1, Gamma: gamma}, seedBuild(10+seed))
			if err != nil {
				t.Fatal(err)
			}
			degrees = append(degrees, g.DegreeSequence()...)
		}
		fit, err := stats.FitPowerLawMLE(degrees, 6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Gamma-gamma) > 0.35 {
			t.Errorf("gamma %.1f: generated exponent %.3f", gamma, fit.Gamma)
		}
	}
}

func TestCMSomeDegreesBelowMAfterCleanup(t *testing.T) {
	t.Parallel()
	// Paper §III-C: deleting loops/multi-edges "causes some very
	// negligible number of nodes in the network to have degrees less than
	// the fixed minimum degree (m) value". With m=2 and no cutoff the
	// hubs are huge, multi-edges frequent, so at least occasionally nodes
	// drop below m — and the fraction must stay tiny.
	below := 0
	total := 0
	for seed := uint64(0); seed < 5; seed++ {
		g, _, err := CMFrozen(CMConfig{N: 5000, M: 2, Gamma: 2.2}, seedBuild(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range g.DegreeSequence() {
			if k < 2 {
				below++
			}
			total++
		}
	}
	if below == 0 {
		t.Log("no node dropped below m (acceptable, depends on draw)")
	}
	if frac := float64(below) / float64(total); frac > 0.05 {
		t.Fatalf("%.2f%% of nodes below m — should be negligible", 100*frac)
	}
}

func TestCMDisconnectedForM1ConnectedForM2(t *testing.T) {
	t.Parallel()
	// Paper §III-C: "the network is not a connected network when m=1 ...
	// For m>1, the network is almost surely connected".
	g1, _, err := CMFrozen(CMConfig{N: 5000, M: 1, Gamma: 2.6}, seedBuild(21))
	if err != nil {
		t.Fatal(err)
	}
	if g1.IsConnected() {
		t.Fatal("CM with m=1 should have disconnected components")
	}
	g2, _, err := CMFrozen(CMConfig{N: 5000, M: 2, KC: 70, Gamma: 2.6}, seedBuild(22))
	if err != nil {
		t.Fatal(err)
	}
	giant := len(g2.GiantComponent())
	if frac := float64(giant) / float64(g2.N()); frac < 0.98 {
		t.Fatalf("CM m=2 giant component only %.1f%% of nodes", 100*frac)
	}
}

func TestCMDeterminism(t *testing.T) {
	t.Parallel()
	cfg := CMConfig{N: 1000, M: 1, KC: 50, Gamma: 2.5}
	a, _, err := CMFrozen(cfg, seedBuild(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CMFrozen(cfg, seedBuild(5))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.N(); u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("degree(%d) differs", u)
		}
	}
}

func TestCMFewerLoopsWithSmallerCutoff(t *testing.T) {
	t.Parallel()
	// Paper §IV-C: "applying harder (smaller) cutoffs to the degrees
	// decreases the probability to have self loops and multiple
	// connections."
	removed := func(kc int) int {
		total := 0
		for seed := uint64(0); seed < 5; seed++ {
			_, st, err := CMFrozen(CMConfig{N: 5000, M: 1, KC: kc, Gamma: 2.2}, seedBuild(30+seed))
			if err != nil {
				t.Fatal(err)
			}
			total += st.SelfLoopsRemoved + st.MultiEdgesRemoved
		}
		return total
	}
	small, large := removed(10), removed(NoCutoff)
	if small >= large {
		t.Fatalf("cleanup counts: kc=10 removed %d, no cutoff removed %d — smaller cutoff should remove fewer", small, large)
	}
}

func TestPowerLawDegreeSequence(t *testing.T) {
	t.Parallel()
	rng := xrand.New(9)
	for trial := 0; trial < 50; trial++ {
		n := rng.IntRange(2, 500)
		seq := powerLawDegreeSequence(n, 1, 40, 2.5, seedBuild(uint64(trial)))
		if len(seq) != n {
			t.Fatalf("length %d, want %d", len(seq), n)
		}
		if sum(seq)%2 != 0 {
			t.Fatalf("odd stub total %d", sum(seq))
		}
		for _, k := range seq {
			if k < 0 || k > 41 {
				t.Fatalf("degree %d wildly out of bounds", k)
			}
		}
	}
}

func TestPowerLawDegreeSequenceDegenerate(t *testing.T) {
	t.Parallel()
	// kMin == kMax with odd total: parity repair must still terminate.
	seq := powerLawDegreeSequence(3, 1, 1, 2.5, Build{})
	if sum(seq)%2 != 0 {
		t.Fatalf("odd total %v", seq)
	}
}

// TestPowerLawDegreeSequenceTableIdentity pins the acceptance contract of
// the sampling table (see plcache.go) at paper scale in the kMax≈N cutoff
// regime: degree sequences, parity repair included, are byte-identical to
// per-draw rng.PowerLawInt on each chunk's sub-stream, for a multi-worker
// build.
func TestPowerLawDegreeSequenceTableIdentity(t *testing.T) {
	t.Parallel()
	cases := []struct {
		n, kMin, kMax int
		gamma         float64
	}{
		{200000, 2, 200000, 2.2}, // paper-scale CM with natural cutoff
		{50000, 2, 10, 2.2},      // hard cutoff
		{30000, 1, 30000, 3.5},
		{100, 2, 100000, 2.5}, // range >> n: a table far longer than the sequence
	}
	for _, c := range cases {
		b := NewBuild(phasesFor(7, 3), 3)
		got := powerLawDegreeSequence(c.n, c.kMin, c.kMax, c.gamma, b)

		want := make([]int, c.n)
		total := 0
		for chunk := 0; chunk < chunks(c.n); chunk++ {
			rng := b.Phases.Chunk("cm.degrees", chunk)
			for i := chunk * buildChunk; i < min(c.n, (chunk+1)*buildChunk); i++ {
				want[i] = rng.PowerLawInt(c.kMin, c.kMax, c.gamma)
				total += want[i]
			}
		}
		if total%2 == 1 {
			i := b.Phases.Stream("cm.parity").Intn(c.n)
			if want[i] < c.kMax {
				want[i]++
			} else {
				want[i]--
			}
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("(n=%d,%d,%d,%g): degree %d differs: got %d want %d",
					c.n, c.kMin, c.kMax, c.gamma, i, got[i], want[i])
			}
		}
	}
}

// TestPowerLawChunkedTableIdentity checks the same contract with the
// reference drawn concurrently through forChunks: the shared table must
// reproduce each chunk's sub-stream draws exactly whatever order the
// workers run the chunks in.
func TestPowerLawChunkedTableIdentity(t *testing.T) {
	t.Parallel()
	const n, kMin, kMax = 60000, 2, 60000
	const gamma = 2.2
	b := NewBuild(phasesFor(7, 3), 3)
	got := powerLawDegreeSequence(n, kMin, kMax, gamma, b)

	want := make([]int, n)
	subtotals := make([]int, chunks(n))
	b.forChunks(n, func(chunk, lo, hi int) {
		rng := b.Phases.Chunk("cm.degrees", chunk)
		t := 0
		for i := lo; i < hi; i++ {
			want[i] = rng.PowerLawInt(kMin, kMax, gamma)
			t += want[i]
		}
		subtotals[chunk] = t
	})
	total := 0
	for _, s := range subtotals {
		total += s
	}
	if total%2 == 1 {
		i := b.Phases.Stream("cm.parity").Intn(n)
		if want[i] < kMax {
			want[i]++
		} else {
			want[i]--
		}
	}
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("chunked degree %d differs: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestPowerLawTableSharedAcrossArenas pins who keeps a degree table.
// Builds with an arena, the engine's, share one table per distribution:
// two arenas missing on one distribution at once get the same table, and
// a warm build allocates less than the table's bounds, so it builds none.
// A build without an arena keeps nothing. It is not parallel: it counts
// the whole process's allocations and plTables' entries.
func TestPowerLawTableSharedAcrossArenas(t *testing.T) {
	entries := func() int {
		c := 0
		plTables.Range(func(any, any) bool { c++; return true })
		return c
	}
	// Gammas no other test draws from, so every first call misses.
	const n, kMin = 20000, 3
	gammas := []float64{2.3401, 2.3402, 2.3403, 2.3404, 2.3405, 2.3406}
	before := entries()
	for _, gamma := range gammas {
		var tables [2]*xrand.PowerLawTable
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				tables[i] = powerLawTable(kMin, n, gamma, Build{Arena: graph.NewCSRArena()})
			}()
		}
		close(start)
		wg.Wait()
		if tables[0] != tables[1] {
			t.Fatalf("gamma=%v: two arenas got two tables for one distribution", gamma)
		}
	}
	if got := entries() - before; got != len(gammas) {
		t.Fatalf("%d distributions stored %d tables", len(gammas), got)
	}

	cfg := CMConfig{N: n, M: kMin, KC: NoCutoff, Gamma: gammas[0]}
	b := Build{Phases: phasesFor(4, 0), Workers: 1, Arena: graph.NewCSRArena()}
	last, _, err := CMFrozen(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	// The smallest of three readings is the build's own (see
	// TestArenaSteadyStateAllocs).
	bytes := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.Arena.Recycle(last)
		if last, _, err = CMFrozen(cfg, b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if table := uint64(8 * (n - kMin)); bytes >= table {
		t.Errorf("a warm build allocated %d B, at least the %d B of its table's bounds", bytes, table)
	}

	stored := entries()
	if _, _, err := CMFrozen(CMConfig{N: n, M: kMin, KC: NoCutoff, Gamma: 2.3499}, seedBuild(4)); err != nil {
		t.Fatal(err)
	}
	if got := entries(); got != stored {
		t.Fatalf("a build without an arena grew the shared tables from %d to %d", stored, got)
	}
}
