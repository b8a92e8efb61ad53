package gen

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// This file implements classical baseline topologies referenced by the
// paper when positioning scale-free networks: Erdős–Rényi random graphs,
// ring lattices, and Watts–Strogatz small-world networks ("search on
// small-world topologies can be as efficient as O(ln N)", §I). They anchor
// the diameter-scaling comparisons (Table I context) and serve as non-
// scale-free controls in the benchmarks.

// ER generates an Erdős–Rényi G(n, M) random graph with exactly edges
// simple edges (no self-loops, no duplicates). edges must fit in a simple
// graph: edges <= n(n-1)/2.
func ER(n, edges int, rng *xrand.RNG) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadN, n)
	}
	maxEdges := n * (n - 1) / 2
	if edges < 0 || edges > maxEdges {
		return nil, fmt.Errorf("gen: ER edge count %d out of [0, %d]", edges, maxEdges)
	}
	rng = defaultRNG(rng)
	g := graph.New(n)
	for g.M() < edges {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		mustEdge(g, u, v)
	}
	return g, nil
}

// Ring generates a ring lattice: n nodes in a cycle, each linked to its k
// nearest neighbors on each side (total degree 2k). Requires n > 2k.
func Ring(n, k int) (*graph.Graph, error) {
	if n < 3 || k < 1 || n <= 2*k {
		return nil, fmt.Errorf("%w: ring n=%d k=%d requires n > 2k >= 2", ErrBadN, n, k)
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			v := (u + d) % n
			mustEdge(g, u, v)
		}
	}
	return g, nil
}

// WattsStrogatz generates a small-world network: a Ring(n, k) lattice with
// each edge rewired with probability beta to a uniform random non-duplicate
// endpoint. beta=0 is the lattice; beta=1 approaches a random graph; small
// beta yields the small-world regime with d ~ ln N.
func WattsStrogatz(n, k int, beta float64, rng *xrand.RNG) (*graph.Graph, error) {
	if !(beta >= 0 && beta <= 1) {
		return nil, fmt.Errorf("gen: rewiring probability beta=%v out of [0,1]", beta)
	}
	g, err := Ring(n, k)
	if err != nil {
		return nil, err
	}
	rng = defaultRNG(rng)
	// Rewire the "forward" lattice edges, the standard WS procedure.
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			if !rng.Bool(beta) {
				continue
			}
			v := (u + d) % n
			if !g.HasEdge(u, v) {
				continue // already rewired away
			}
			// Pick a new endpoint avoiding self-loops and duplicates; a
			// node adjacent to everything keeps its edge.
			w := -1
			for attempt := 0; attempt < 100; attempt++ {
				cand := rng.Intn(n)
				if cand != u && !g.HasEdge(u, cand) {
					w = cand
					break
				}
			}
			if w < 0 {
				continue
			}
			g.RemoveEdge(u, v)
			mustEdge(g, u, w)
		}
	}
	return g, nil
}
