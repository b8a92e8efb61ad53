package graph

// Whole-graph traversal on the CSR snapshot: BFS, connected components,
// the sampled path-length and diameter estimators behind Table I, and
// induced snapshots. This is the one implementation of each: a Graph has
// no traversal of its own and is frozen to be read. Queue order follows
// the preserved insertion order of each row, so every result is a pure
// function of the adjacency the snapshot was built from.

import (
	"cmp"
	"slices"
)

// bfsInto runs BFS from src writing into dist (pre-filled with -1 for at
// least the reachable nodes), reusing queue as scratch. It returns the
// queue for reuse.
func (f *Frozen) bfsInto(src int, dist []int32, queue []int32) []int32 {
	queue = queue[:0]
	queue = append(queue, int32(src))
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range f.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// BFS computes hop distances from src to every node. Unreachable nodes get
// distance -1 and src gets 0. Returns nil if src is invalid.
func (f *Frozen) BFS(src int) []int32 {
	n := f.N()
	if src < 0 || src >= n {
		return nil
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	f.bfsInto(src, dist, nil)
	return dist
}

// ConnectedComponents returns the node sets of each connected component,
// largest first (ties in order of smallest member); members of each
// component are ascending, so the result is independent of adjacency
// order.
func (f *Frozen) ConnectedComponents() [][]int {
	n := f.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	var comps [][]int
	var queue []int32
	for s := 0; s < n; s++ {
		if dist[s] >= 0 {
			continue
		}
		// The queue ends holding exactly the nodes reached from s.
		queue = f.bfsInto(s, dist, queue)
		members := make([]int, len(queue))
		for i, u := range queue {
			members[i] = int(u)
		}
		slices.Sort(members)
		comps = append(comps, members)
	}
	// Largest first; the stable sort keeps discovery order among ties.
	slices.SortStableFunc(comps, func(a, b []int) int { return cmp.Compare(len(b), len(a)) })
	return comps
}

// GiantComponent returns the node set of the largest connected component,
// or nil for an empty snapshot.
func (f *Frozen) GiantComponent() []int {
	comps := f.ConnectedComponents()
	if len(comps) == 0 {
		return nil
	}
	return comps[0]
}

// IsConnected reports whether the snapshot has exactly one connected
// component containing every node. The empty snapshot is connected.
func (f *Frozen) IsConnected() bool {
	if f.N() == 0 {
		return true
	}
	return len(f.GiantComponent()) == f.N()
}

// SamplePathStats estimates mean shortest-path length and diameter by
// running BFS from `sources` random source nodes and aggregating distances
// to all reachable nodes. For sources >= N it is exact (all-pairs, no
// draws). Scale-free diameter claims (Table I) are verified with this
// estimator.
func (f *Frozen) SamplePathStats(sources int, rng randSource) PathStats {
	n := f.N()
	var st PathStats
	if n == 0 || sources <= 0 {
		return st
	}
	exact := sources >= n
	dist := make([]int32, n)
	var queue []int32
	var sumDist float64
	for s := 0; s < sources && s < n; s++ {
		src := s
		if !exact {
			src = rng.Intn(n)
		}
		for i := range dist {
			dist[i] = -1
		}
		queue = f.bfsInto(src, dist, queue)
		for v, d := range dist {
			if v == src {
				continue
			}
			if d < 0 {
				st.UnreachablePairs++
				continue
			}
			sumDist += float64(d)
			st.Pairs++
			if int(d) > st.MaxDistance {
				st.MaxDistance = int(d)
			}
		}
	}
	if st.Pairs > 0 {
		st.MeanDistance = sumDist / float64(st.Pairs)
	}
	return st
}

// Eccentricity returns the greatest BFS distance from src to any reachable
// node, or 0 if src is invalid or isolated.
func (f *Frozen) Eccentricity(src int) int {
	ecc := 0
	for _, d := range f.BFS(src) {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// EstimateDiameter lower-bounds the diameter with the standard double-sweep
// heuristic repeated `sweeps` times: BFS from a random node, then BFS again
// from the farthest node found. On small-world graphs this is near-exact.
func (f *Frozen) EstimateDiameter(sweeps int, rng randSource) int {
	n := f.N()
	if n == 0 || sweeps <= 0 {
		return 0
	}
	best := 0
	dist := make([]int32, n)
	var queue []int32
	for s := 0; s < sweeps; s++ {
		src := rng.Intn(n)
		for i := range dist {
			dist[i] = -1
		}
		queue = f.bfsInto(src, dist, queue)
		far, fd := src, int32(0)
		for v, d := range dist {
			if d > fd {
				far, fd = v, d
			}
		}
		for i := range dist {
			dist[i] = -1
		}
		queue = f.bfsInto(far, dist, queue)
		for _, d := range dist {
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// InducedFrozen returns the snapshot of the subgraph on the given node
// list, renumbered 0..len(nodes)-1 in list order, plus the mapping from
// new IDs back to original IDs. Edges with an endpoint outside the set are
// dropped; parallel edges and self-loops inside the set are preserved, and
// an out-of-range ID becomes an isolated node. Row order is fixed:
// scanning the list, each edge {i, j} with i < j is appended to both rows
// when i's row is scanned, and each self-loop lands at the end of its row.
func (f *Frozen) InducedFrozen(nodes []int) (*Frozen, []int) {
	n := f.N()
	k := len(nodes)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	orig := make([]int, k)
	for i, u := range nodes {
		if u >= 0 && u < n {
			idx[u] = int32(i)
		}
		orig[i] = u
	}

	// Count pass: one increment per surviving edge end, each edge {i, j}
	// counted from its smaller new ID and self-loop entries counted apart.
	lens := make([]int32, k)
	selfEntries := make([]int32, k)
	edges := 0
	for i, u := range nodes {
		if u < 0 || u >= n {
			continue
		}
		for _, v := range f.Neighbors(u) {
			j := idx[v]
			if j < 0 {
				continue
			}
			if int32(i) < j {
				lens[i]++
				lens[j]++
				edges++
			} else if int32(i) == j {
				selfEntries[i]++
			}
		}
	}
	// Self-loop entries come in pairs; each pair becomes one loop (two
	// adjacency entries) appended after the scan.
	for i := range lens {
		loops := selfEntries[i] / 2
		lens[i] += 2 * loops
		edges += int(loops)
	}

	sub := &Frozen{offsets: make([]int32, k+1), edges: edges}
	for i := 0; i < k; i++ {
		sub.offsets[i+1] = sub.offsets[i] + lens[i]
	}
	sub.neighbors = make([]int32, sub.offsets[k])
	next := make([]int32, k)
	copy(next, sub.offsets[:k])
	for i, u := range nodes {
		if u < 0 || u >= n {
			continue
		}
		for _, v := range f.Neighbors(u) {
			j := idx[v]
			if j < 0 || int32(i) >= j {
				continue
			}
			sub.neighbors[next[i]] = j
			next[i]++
			sub.neighbors[next[j]] = int32(i)
			next[j]++
		}
	}
	for i := range selfEntries {
		for c := selfEntries[i] / 2; c > 0; c-- {
			sub.neighbors[next[i]] = int32(i)
			sub.neighbors[next[i]+1] = int32(i)
			next[i] += 2
		}
	}
	return sub, orig
}
