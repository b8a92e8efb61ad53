package graph

import (
	"testing"

	"scalefree/internal/xrand"
)

func TestCoreNumbersClique(t *testing.T) {
	t.Parallel()
	// K4: everyone in the 3-core.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			mustAdd(t, g, u, v)
		}
	}
	f := g.Freeze()
	for u, c := range f.CoreNumbers() {
		if c != 3 {
			t.Fatalf("core(%d) = %d, want 3", u, c)
		}
	}
	if f.MaxCore() != 3 {
		t.Fatalf("MaxCore %d", f.MaxCore())
	}
}

func TestCoreNumbersPath(t *testing.T) {
	t.Parallel()
	// A path is 1-degenerate: every node in the 1-core, none in the 2-core.
	g := path(t, 6)
	f := g.Freeze()
	for u, c := range f.CoreNumbers() {
		if c != 1 {
			t.Fatalf("core(%d) = %d, want 1", u, c)
		}
	}
	if got := f.KCore(2); len(got) != 0 {
		t.Fatalf("2-core of a path: %v", got)
	}
}

func TestCoreNumbersCliqueWithTail(t *testing.T) {
	t.Parallel()
	// Triangle (2-core) with a pendant chain: chain nodes are 1-core.
	g := New(5)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 2, 3)
	mustAdd(t, g, 3, 4)
	f := g.Freeze()
	core := f.CoreNumbers()
	want := []int{2, 2, 2, 1, 1}
	for u := range want {
		if core[u] != want[u] {
			t.Fatalf("core %v, want %v", core, want)
		}
	}
	twoCore := f.KCore(2)
	if len(twoCore) != 3 || twoCore[0] != 0 || twoCore[2] != 2 {
		t.Fatalf("2-core %v", twoCore)
	}
}

func TestCoreNumbersEmptyAndIsolated(t *testing.T) {
	t.Parallel()
	if got := New(0).Freeze().CoreNumbers(); len(got) != 0 {
		t.Fatalf("empty cores %v", got)
	}
	g := New(3)
	for _, c := range g.Freeze().CoreNumbers() {
		if c != 0 {
			t.Fatalf("isolated core %d", c)
		}
	}
}

// Property: the k-core really is a subgraph where every member has >= k
// neighbors inside the set.
func TestKCoreProperty(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 20; seed++ {
		rng := xrand.New(seed)
		n := rng.IntRange(5, 60)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				mustAdd(t, g, u, v)
			}
		}
		f := g.Freeze()
		core := f.CoreNumbers()
		maxCore := f.MaxCore()
		for k := 1; k <= maxCore; k++ {
			members := map[int]bool{}
			for _, u := range f.KCore(k) {
				members[u] = true
			}
			for u := range members {
				inside := 0
				for _, v := range g.Neighbors(u) {
					if members[int(v)] {
						inside++
					}
				}
				if inside < k {
					t.Fatalf("seed %d: node %d in %d-core has only %d internal neighbors (core=%d)",
						seed, u, k, inside, core[u])
				}
			}
		}
		// Core number never exceeds degree.
		for u := 0; u < n; u++ {
			if core[u] > g.Degree(u) {
				t.Fatalf("core(%d)=%d > degree %d", u, core[u], g.Degree(u))
			}
		}
	}
}

func TestPACoreStructure(t *testing.T) {
	t.Parallel()
	// PA with m stubs has an m-core containing almost everything (every
	// non-seed node joins with m links), and max core >= m.
	rng := xrand.New(3)
	g := New(2000)
	// Build a quick PA-like graph inline to avoid an import cycle with
	// gen: each node links to m=2 random predecessors.
	for u := 1; u < 2000; u++ {
		for j := 0; j < 2 && j < u; j++ {
			v := rng.Intn(u)
			if !g.HasEdge(u, v) {
				mustAdd(t, g, u, v)
			}
		}
	}
	if c := g.Freeze().MaxCore(); c < 2 {
		t.Fatalf("max core %d, want >= 2", c)
	}
}

func BenchmarkCoreNumbers(b *testing.B) {
	rng := xrand.New(1)
	const n = 10000
	g := New(n)
	for u := 1; u < n; u++ {
		for j := 0; j < 3; j++ {
			v := rng.Intn(u)
			if !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
	}
	f := g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.CoreNumbers()
	}
}
