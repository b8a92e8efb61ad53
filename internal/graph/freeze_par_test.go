package graph

import (
	"reflect"
	"testing"
)

// frozenArrays extracts a Frozen's full state for bit-for-bit comparison,
// forcing the sorted ranges to exist.
func frozenArrays(f *Frozen) ([]int32, []int32, []int32) {
	f.ensureSorted()
	return f.offsets, f.neighbors, f.sorted
}

// buildTestMultigraph returns a graph with hubs, self-loops, parallel
// edges, and isolated nodes — every layout case freezing must preserve.
func buildTestMultigraph(t *testing.T) *Graph {
	t.Helper()
	g := New(600)
	add := func(u, v int) {
		t.Helper()
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < 550; v++ {
		add(0, v) // hub with a long adjacency range (exercises the sort path)
		add(v, (v*7)%550+1)
	}
	add(3, 3) // self-loop
	add(4, 5)
	add(4, 5) // parallel edge
	return g
}

// TestFreezeParEquivalence pins the parallel CSR fill: FreezePar yields
// the identical snapshot as the serial Freeze for every worker count,
// including degenerate ones.
func TestFreezeParEquivalence(t *testing.T) {
	t.Parallel()
	g := buildTestMultigraph(t)
	wo, wn, ws := frozenArrays(g.Freeze())
	// 32 and 100 exceed √600: regression for the ceil-division range split,
	// which used to hand trailing workers lo > n and panic.
	for _, workers := range []int{-1, 0, 1, 2, 4, 16, 32, 100, 1000} {
		f := g.FreezePar(workers)
		o, n, s := frozenArrays(f)
		if !reflect.DeepEqual(wo, o) || !reflect.DeepEqual(wn, n) || !reflect.DeepEqual(ws, s) {
			t.Fatalf("FreezePar(%d) diverged from Freeze()", workers)
		}
		if f.M() != g.M() {
			t.Fatalf("FreezePar(%d).M() = %d, want %d", workers, f.M(), g.M())
		}
	}
}

// TestMaterializeSortedEquivalence pins the one explicit "build now":
// a fresh snapshot carries no membership ranges, and MaterializeSorted
// produces exactly the arrays the first membership query would have built,
// for every worker count, answering membership queries without further
// initialization.
func TestMaterializeSortedEquivalence(t *testing.T) {
	t.Parallel()
	g := buildTestMultigraph(t)
	for _, workers := range []int{1, 2, 4, 16, 64} {
		f := g.FreezePar(workers)
		if f.sorted != nil {
			t.Fatalf("FreezePar(%d) built the membership ranges", workers)
		}
		f.MaterializeSorted(workers)
		if f.sorted == nil {
			t.Fatalf("MaterializeSorted(%d) left sorted ranges lazy", workers)
		}
		expectIdentical(t, "materialized", g.Freeze(), f)
		if !f.HasEdge(4, 5) || f.HasEdge(4, 6) {
			t.Fatalf("MaterializeSorted(%d) membership wrong", workers)
		}
		if f.EdgeMultiplicity(4, 5) != 2 || f.EdgeMultiplicity(3, 3) != 1 {
			t.Fatalf("MaterializeSorted(%d) multiplicity wrong", workers)
		}
	}
}
