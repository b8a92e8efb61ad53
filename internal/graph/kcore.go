package graph

// k-core decomposition: the standard peeling algorithm (Batagelj–Zaveršnik
// bucket variant, O(V+E)). The k-core structure of an overlay reveals its
// resilient backbone — nodes in high cores survive the removal of all
// lower-degree peers, which complements the hard-cutoff analysis: cutoffs
// cap the maximum degree but raise the minimum core of the bulk.

// CoreNumbers returns each node's core number: the largest k such that the
// node belongs to a subgraph where every member has degree >= k within the
// subgraph. Self-loops and parallel edges count toward degree (consistent
// with Degree).
func (f *Frozen) CoreNumbers() []int {
	n := f.N()
	core := make([]int, n)
	if n == 0 {
		return core
	}
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = f.Degree(u)
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort nodes by degree.
	bin := make([]int, maxDeg+2) // bin[d] = start index of degree-d block
	for _, d := range deg {
		bin[d+1]++
	}
	for d := 1; d < len(bin); d++ {
		bin[d] += bin[d-1]
	}
	pos := make([]int, n)  // node -> index in vert
	vert := make([]int, n) // sorted nodes
	next := append([]int(nil), bin...)
	for u := 0; u < n; u++ {
		pos[u] = next[deg[u]]
		vert[pos[u]] = u
		next[deg[u]]++
	}

	for i := 0; i < n; i++ {
		u := vert[i]
		core[u] = deg[u]
		for _, vv := range f.Neighbors(u) {
			v := int(vv)
			if deg[v] <= deg[u] {
				continue
			}
			// Move v one bucket down: swap it with the first node of its
			// current degree block, then shrink the block.
			dv := deg[v]
			pw := bin[dv]
			w := vert[pw]
			if v != w {
				vert[pos[v]], vert[pw] = w, v
				pos[w], pos[v] = pos[v], pw
			}
			bin[dv]++
			deg[v]--
		}
	}
	return core
}

// MaxCore returns the largest core number (the degeneracy of the graph).
func (f *Frozen) MaxCore() int {
	best := 0
	for _, c := range f.CoreNumbers() {
		if c > best {
			best = c
		}
	}
	return best
}

// KCore returns the node set of the k-core (all nodes with core number
// >= k), in ascending node order.
func (f *Frozen) KCore(k int) []int {
	var out []int
	for u, c := range f.CoreNumbers() {
		if c >= k {
			out = append(out, u)
		}
	}
	return out
}
