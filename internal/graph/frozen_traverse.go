package graph

// Component and sampled-distance machinery on the CSR snapshot, mirroring
// the Graph implementations in traverse.go bit for bit. These exist so
// figures whose topologies are built straight into CSR form (CM via
// CSRBuilder) can extract giant components and measure path statistics
// without ever materializing a mutable Graph.

import "sort"

// bfsInto runs BFS from src writing into dist (pre-filled with -1 for at
// least the reachable nodes), reusing queue as scratch. Queue order equals
// Graph.bfsInto's because neighbor order is preserved by freezing.
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

// ConnectedComponents returns the node sets of each connected component,
// largest first, members ascending — identical to Graph.ConnectedComponents
// on the graph this snapshot was (or would have been) frozen from.
func (f *Frozen) ConnectedComponents() [][]int {
	n := f.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		members := []int{}
		queue = queue[:0]
		queue = append(queue, int32(s))
		comp[s] = id
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			members = append(members, int(u))
			for _, v := range f.Neighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	sortBySizeDesc(comps)
	return comps
}

// GiantComponent returns the node set of the largest connected component,
// or nil for an empty snapshot, as Graph.GiantComponent.
func (f *Frozen) GiantComponent() []int {
	comps := f.ConnectedComponents()
	if len(comps) == 0 {
		return nil
	}
	return comps[0]
}

// SamplePathStats estimates mean shortest-path length and diameter from
// `sources` random BFS sources, drawing and aggregating exactly as
// Graph.SamplePathStats (same RNG consumption, same result).
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

// InducedFrozen returns the CSR snapshot of the subgraph on the given
// node set, renumbered 0..len(nodes)-1 in the given order, plus the
// mapping from new IDs back to original IDs. It is byte-identical —
// offsets and neighbor order — to Graph.InducedSubgraph(nodes) followed
// by Freeze on the graph this snapshot was frozen from: edges with an
// endpoint outside the set are dropped, parallel edges and self-loops
// inside the set are preserved, and the adjacency order replays
// InducedSubgraph's two-sided insertion scan (self-loop entries landing
// at the end of their row).
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

	// Count pass: one increment per surviving directed adjacency entry,
	// following the same i<j / i==j split InducedSubgraph uses.
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
	// adjacency entries) appended after the scan, as InducedSubgraph does.
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
