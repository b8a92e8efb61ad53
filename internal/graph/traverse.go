package graph

// This file holds the Graph side of traversal: the path-statistics result
// type, the map-based bounded BFS, and one-line delegations to the Frozen
// snapshot, where every whole-graph traversal has its one implementation
// (frozen_traverse.go). Each delegation freezes g per call; code that runs
// several analyses on one topology should Freeze once and read the snapshot.

// BFS computes hop distances from src to every node. Unreachable nodes get
// distance -1. The src node itself gets 0. Returns nil if src is invalid.
func (g *Graph) BFS(src int) []int32 { return g.Freeze().BFS(src) }

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
func (g *Graph) ConnectedComponents() [][]int { return g.Freeze().ConnectedComponents() }

// GiantComponent returns the node set of the largest connected component,
// or nil for an empty graph.
func (g *Graph) GiantComponent() []int { return g.Freeze().GiantComponent() }

// IsConnected reports whether the graph has exactly one connected component
// containing every node. The empty graph is considered connected.
func (g *Graph) IsConnected() bool { return g.Freeze().IsConnected() }

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
// running BFS from `sources` random source nodes; see
// Frozen.SamplePathStats.
func (g *Graph) SamplePathStats(sources int, rng randSource) PathStats {
	return g.Freeze().SamplePathStats(sources, rng)
}

// Eccentricity returns the greatest BFS distance from src to any reachable
// node, or 0 if src is invalid or isolated.
func (g *Graph) Eccentricity(src int) int { return g.Freeze().Eccentricity(src) }

// EstimateDiameter lower-bounds the diameter with the double-sweep
// heuristic repeated `sweeps` times; see Frozen.EstimateDiameter.
func (g *Graph) EstimateDiameter(sweeps int, rng randSource) int {
	return g.Freeze().EstimateDiameter(sweeps, rng)
}
