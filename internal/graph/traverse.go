package graph

// This file holds traversal and distance machinery: BFS, connected
// components, and the sampled path-length estimators used to reproduce the
// diameter-scaling claims of Table I.

import "sort"

// BFS computes hop distances from src to every node. Unreachable nodes get
// distance -1. The src node itself gets 0. Returns nil if src is invalid.
func (g *Graph) BFS(src int) []int32 {
	if uint(src) >= uint(len(g.adj)) {
		return nil
	}
	dist := make([]int32, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	g.bfsInto(src, dist, nil)
	return dist
}

// bfsInto runs BFS from src writing into dist (which must be pre-filled
// with -1 at least for reachable nodes). queue may be nil or a reusable
// scratch buffer. It returns the scratch queue for reuse.
func (g *Graph) bfsInto(src int, dist []int32, queue []int32) []int32 {
	queue = queue[:0]
	queue = append(queue, int32(src))
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// BFSWithin visits all nodes within maxDepth hops of src (including src at
// depth 0), calling visit(node, depth) once per node in breadth-first
// order. It is the engine behind DAPA's substrate horizon query
// (Appendix D) and flooding-search hit counting. visit returning false
// stops the traversal early.
func (g *Graph) BFSWithin(src, maxDepth int, visit func(node, depth int) bool) {
	if uint(src) >= uint(len(g.adj)) || maxDepth < 0 {
		return
	}
	dist := make(map[int32]int32, 64)
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	dist[int32(src)] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if !visit(int(u), int(du)) {
			return
		}
		if int(du) == maxDepth {
			continue
		}
		for _, v := range g.adj[u] {
			if _, seen := dist[v]; !seen {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
}

// ConnectedComponents returns the node sets of each connected component,
// largest first; members of each component are in ascending node order, so
// the result is independent of adjacency order.
func (g *Graph) ConnectedComponents() [][]int {
	n := len(g.adj)
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
			for _, v := range g.adj[u] {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	// Selection-sort style ordering is fine: component count is small in
	// practice, but sort properly for adversarial inputs.
	sortBySizeDesc(comps)
	return comps
}

func sortBySizeDesc(comps [][]int) {
	// Insertion sort by length descending; component lists are few.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
}

// GiantComponent returns the node set of the largest connected component,
// or nil for an empty graph.
func (g *Graph) GiantComponent() []int {
	comps := g.ConnectedComponents()
	if len(comps) == 0 {
		return nil
	}
	return comps[0]
}

// IsConnected reports whether the graph has exactly one connected component
// containing every node. The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	if len(g.adj) == 0 {
		return true
	}
	return len(g.GiantComponent()) == len(g.adj)
}

// PathStats summarizes sampled shortest-path structure.
type PathStats struct {
	// MeanDistance is the average shortest-path length over sampled
	// reachable pairs.
	MeanDistance float64
	// MaxDistance is the largest distance observed in the sample
	// (a lower bound on the true diameter).
	MaxDistance int
	// Pairs is the number of reachable pairs sampled.
	Pairs int
	// UnreachablePairs counts sampled pairs with no connecting path.
	UnreachablePairs int
}

// SamplePathStats estimates mean shortest-path length and diameter by
// running BFS from `sources` random source nodes and aggregating distances
// to all reachable nodes. For sources >= N it is exact (all-pairs).
// Scale-free diameter claims (Table I) are verified with this estimator.
func (g *Graph) SamplePathStats(sources int, rng randSource) PathStats {
	n := len(g.adj)
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
		queue = g.bfsInto(src, dist, queue)
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
func (g *Graph) Eccentricity(src int) int {
	dist := g.BFS(src)
	ecc := 0
	for _, d := range dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// EstimateDiameter lower-bounds the diameter with the standard double-sweep
// heuristic repeated `sweeps` times: BFS from a random node, then BFS again
// from the farthest node found. On small-world graphs this is near-exact.
func (g *Graph) EstimateDiameter(sweeps int, rng randSource) int {
	n := len(g.adj)
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
		queue = g.bfsInto(src, dist, queue)
		far, fd := src, int32(0)
		for v, d := range dist {
			if d > fd {
				far, fd = v, d
			}
		}
		for i := range dist {
			dist[i] = -1
		}
		queue = g.bfsInto(far, dist, queue)
		for _, d := range dist {
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// InducedSubgraph returns the subgraph on the given node set with nodes
// renumbered 0..len(nodes)-1 in the given order, plus the mapping from new
// IDs back to original IDs. Edges with an endpoint outside the set are
// dropped. Parallel edges and self-loops inside the set are preserved.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	idx := make(map[int32]int32, len(nodes))
	orig := make([]int, len(nodes))
	for i, u := range nodes {
		idx[int32(u)] = int32(i)
		orig[i] = u
	}
	sub := New(len(nodes))
	for i, u := range nodes {
		if uint(u) >= uint(len(g.adj)) {
			continue
		}
		loopEntries := 0
		for _, v := range g.adj[u] {
			j, ok := idx[v]
			if !ok {
				continue
			}
			// Add each undirected edge once: from its smaller new ID.
			if int32(i) < j {
				sub.adj[i] = append(sub.adj[i], j)
				sub.adj[j] = append(sub.adj[j], int32(i))
				sub.edges++
			} else if int32(i) == j {
				loopEntries++
			}
		}
		// Self-loop entries come in pairs, one pair per loop. Row i is
		// otherwise complete here (only new IDs <= i append to it), so the
		// loops land last.
		for c := loopEntries / 2; c > 0; c-- {
			sub.adj[i] = append(sub.adj[i], int32(i), int32(i))
			sub.edges++
		}
	}
	return sub, orig
}
