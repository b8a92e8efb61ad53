package graph

import "sync"

// Frozen is a compressed-sparse-row (CSR) snapshot of a Graph: the whole
// adjacency structure flattened into two int32 arrays (offsets, neighbors)
// plus a per-node-sorted copy of the neighbor array for binary-search edge
// membership. It exists because every headline experiment in this
// repository is read-heavy on a topology that never mutates after
// generation: floods, NF sweeps, random walks, and clustering metrics
// hammer Degree/Neighbors/HasEdge millions of times per
// realization, and the slice-of-slices Graph pays a pointer chase per node
// and an unsorted row scan per HasEdge — linear in the smaller degree,
// which is what a hub-to-hub clustering probe cannot afford.
//
// Layout and guarantees:
//
//   - neighbors[offsets[u]:offsets[u+1]] is node u's adjacency list in
//     EXACTLY the order Graph.Neighbors(u) reports it (insertion order).
//     Every candidate scan and random-neighbor draw therefore consumes
//     RNG values and visits nodes in the same sequence as on the Graph it
//     was frozen from, which the equivalence tests pin. Whole-graph
//     traversals (BFS, components, path statistics, cores, induced
//     snapshots) and degree statistics exist only here: a Graph is the
//     growth buffer, and every read of a finished topology goes through
//     its snapshot (removal experiments shrink a copy of its rows).
//   - sorted[offsets[u]:offsets[u+1]] is the same multiset ascending, so
//     HasEdge/EdgeMultiplicity are a binary search over the
//     smaller-degree endpoint instead of Graph.HasEdge's linear scan of it.
//     It is nil until ensureSorted builds it, once, on the first
//     membership query. Search kernels, walkers, BFS and the DES
//     only forward to neighbors and never touch it, so no experiment
//     spec pays for it — only the clustering and rich-club metrics do.
//   - Self-loops appear twice per adjacency list and parallel edges once
//     per copy, exactly as in Graph (multigraphs freeze faithfully).
//
// Memory: 4 bytes per adjacency entry plus 4·(N+1) bytes of offsets
// (another 4 bytes per entry once a membership query materializes the
// sorted ranges) — against the Graph's 24-byte slice header per node and
// append-grown row capacities, in a handful of allocations instead of
// O(N). Freezing each realization and dropping the *Graph lets the
// generator's per-node slices be collected before the search sweep.
//
// A Frozen is immutable and safe for concurrent readers. Accessors do not
// re-validate node IDs beyond the slice bounds check; callers validate at
// API boundaries like the search kernels do.
type Frozen struct {
	// offsets has N+1 entries; node u's adjacency lives at
	// [offsets[u], offsets[u+1]) in both neighbors and sorted.
	offsets []int32
	// neighbors is the concatenated adjacency in insertion order.
	neighbors []int32
	// sorted is the concatenated adjacency with each node's range
	// ascending, for binary-search membership tests. Built on first use
	// under sortedOnce (concurrent readers stay safe); nil until then.
	sorted     []int32
	sortedOnce sync.Once
	// edges is the edge count (counting multiplicity), as Graph.M.
	edges int
}

// Freeze snapshots g into CSR form. The Frozen shares nothing with g:
// mutating g afterwards does not invalidate it. Typical use is once per
// generated topology, after Simplify, before the read-only sweep. The
// sorted membership ranges are built by the first membership query.
func (g *Graph) Freeze() *Frozen { return g.FreezePar(1) }

// FreezePar is Freeze with the neighbor-array fill fanned out across up to
// `workers` goroutines (<=1 runs serially). The snapshot is identical for
// every worker count — each worker copies a disjoint node range of the
// already-fixed layout.
func (g *Graph) FreezePar(workers int) *Frozen { return g.freeze(workers, nil) }

// freeze is FreezePar into the arrays arena.csrArrays hands out.
func (g *Graph) freeze(workers int, arena *CSRArena) *Frozen {
	n := len(g.adj)
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	f := &Frozen{edges: g.edges}
	f.offsets, f.neighbors = arena.csrArrays(n, total)
	total = 0
	for u, a := range g.adj {
		f.offsets[u] = int32(total)
		total += len(a)
	}
	f.offsets[n] = int32(total)
	parallelNodeRanges(n, workers, func(lo, hi int) {
		for i, a := range g.adj[lo:hi] {
			copy(f.neighbors[f.offsets[lo+i]:], a)
		}
	})
	return f
}

// MaterializeSorted builds the sorted HasEdge ranges now, on the calling
// goroutine, instead of inside the first membership query. The array is
// the same for every worker count, so workers is ignored.
func (f *Frozen) MaterializeSorted(workers int) { f.ensureSorted() }

// parallelNodeRanges splits [0, n) into up to `workers` contiguous ranges
// and runs fn on each concurrently (serially when workers <= 1). fn must
// write only range-disjoint state. Iterating by range start (not worker
// index) guarantees every spawned range is non-empty: with ceil division
// a per-worker loop would hand trailing workers lo > n once workers
// exceeds ~√n.
func parallelNodeRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ensureSorted builds the sorted ranges once, on the first membership
// query. sync.Once makes concurrent first readers safe and later reads a
// single atomic load.
func (f *Frozen) ensureSorted() {
	f.sortedOnce.Do(func() {
		f.sorted = sortedFromAdjacency(f.offsets, f.neighbors)
	})
}

// sortedFromAdjacency builds the ascending per-node neighbor array by a
// counting transpose: walking sources in ascending order and appending
// each u to its neighbors' buckets yields every bucket pre-sorted, because
// undirected adjacency is symmetric (v ∈ adj[u] with multiplicity c iff
// u ∈ adj[v] with multiplicity c, self-loops contributing two entries on
// both sides). O(V+E), no comparison sort.
func sortedFromAdjacency(offsets, neighbors []int32) []int32 {
	sorted := make([]int32, len(neighbors))
	n := len(offsets) - 1
	next := make([]int32, n)
	copy(next, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range neighbors[offsets[u]:offsets[u+1]] {
			sorted[next[v]] = int32(u)
			next[v]++
		}
	}
	return sorted
}

// N returns the number of nodes.
func (f *Frozen) N() int { return len(f.offsets) - 1 }

// M returns the number of edges, counting multiplicity, as Graph.M.
func (f *Frozen) M() int { return f.edges }

// Degree returns the degree of u; self-loops count twice.
func (f *Frozen) Degree(u int) int { return int(f.offsets[u+1] - f.offsets[u]) }

// Neighbors returns u's adjacency list in the original insertion order.
// The returned slice aliases the frozen storage: callers must not mutate
// it.
func (f *Frozen) Neighbors(u int) []int32 { return f.neighbors[f.offsets[u]:f.offsets[u+1]] }

// SortedNeighbors returns u's adjacency list ascending (duplicates
// adjacent), the range HasEdge binary-searches. Callers must not mutate
// it.
func (f *Frozen) SortedNeighbors(u int) []int32 {
	f.ensureSorted()
	return f.sorted[f.offsets[u]:f.offsets[u+1]]
}

// NeighborAt returns the i-th neighbor of u (insertion order).
func (f *Frozen) NeighborAt(u, i int) int { return int(f.neighbors[int(f.offsets[u])+i]) }

// TotalDegree returns the sum of all node degrees.
func (f *Frozen) TotalDegree() int { return len(f.neighbors) }

// HasEdge reports whether at least one edge {u,v} exists, by binary search
// over the smaller-degree endpoint's sorted range. Out-of-range IDs report
// false, as Graph.HasEdge does.
func (f *Frozen) HasEdge(u, v int) bool {
	n := f.N()
	if u < 0 || v < 0 || u >= n || v >= n {
		return false
	}
	if f.Degree(u) > f.Degree(v) {
		u, v = v, u
	}
	return sortedContains(f.SortedNeighbors(u), int32(v))
}

// EdgeMultiplicity returns the number of parallel edges between u and v
// (a self-loop counts once, though it is two entries of u's row).
// Out-of-range IDs report 0.
func (f *Frozen) EdgeMultiplicity(u, v int) int {
	n := f.N()
	if u < 0 || v < 0 || u >= n || v >= n {
		return 0
	}
	if u != v && f.Degree(u) > f.Degree(v) {
		u, v = v, u
	}
	c := sortedCount(f.SortedNeighbors(u), int32(v))
	if u == v {
		// A self-loop contributes two adjacency entries.
		c /= 2
	}
	return c
}

// sortedContains reports whether x occurs in ascending slice a.
func sortedContains(a []int32, x int32) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == x
}

// sortedCount returns the number of occurrences of x in ascending slice a.
func sortedCount(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c := 0
	for i := lo; i < len(a) && a[i] == x; i++ {
		c++
	}
	return c
}

// MinDegree returns the smallest degree over all nodes, or 0 for an empty
// graph.
func (f *Frozen) MinDegree() int {
	n := f.N()
	if n == 0 {
		return 0
	}
	minDeg := f.Degree(0)
	for u := 1; u < n; u++ {
		if d := f.Degree(u); d < minDeg {
			minDeg = d
		}
	}
	return minDeg
}

// MaxDegree returns the largest degree over all nodes, or 0 for an empty
// graph.
func (f *Frozen) MaxDegree() int {
	maxDeg := 0
	for u, n := 0, f.N(); u < n; u++ {
		if d := f.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// DegreeSequence returns every node's degree, indexed by node ID.
func (f *Frozen) DegreeSequence() []int {
	seq := make([]int, f.N())
	for u := range seq {
		seq[u] = f.Degree(u)
	}
	return seq
}

// DegreeHistogram returns counts[k] = number of nodes with degree k.
func (f *Frozen) DegreeHistogram() []int {
	h := make([]int, f.MaxDegree()+1)
	for u, n := 0, f.N(); u < n; u++ {
		h[f.Degree(u)]++
	}
	return h
}

// RandomNeighbor returns a uniformly random neighbor of u, or -1 if u has
// none. Draw sequence and outcome match Graph.RandomNeighbor exactly. u
// must be a valid node ID.
func (f *Frozen) RandomNeighbor(u int, rng randSource) int {
	a := f.Neighbors(u)
	if len(a) == 0 {
		return -1
	}
	return int(a[rng.Intn(len(a))])
}

// RandomNeighborExcluding returns a uniformly random neighbor of u other
// than excl, or -1 if none exists, drawing one Intn over the eligible
// entries of u's row. Random-walk search uses this to avoid immediately
// bouncing back to the forwarding node (paper §V-A3). u must be a valid
// node ID.
func (f *Frozen) RandomNeighborExcluding(u, excl int, rng randSource) int {
	a := f.Neighbors(u)
	n := 0
	for _, v := range a {
		if int(v) != excl {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	pick := rng.Intn(n)
	for _, v := range a {
		if int(v) != excl {
			if pick == 0 {
				return int(v)
			}
			pick--
		}
	}
	return -1 // unreachable
}
