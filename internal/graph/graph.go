// Package graph implements the undirected-graph engine underlying every
// topology generator and search algorithm in this repository, in two
// types: Graph, the mutable growth buffer generators and churn write, and
// Frozen, the CSR snapshot every read of a finished topology goes through.
//
// Design goals, in order:
//
//  1. Predictable performance at paper scale (N = 10^5 nodes, ~3·10^5 edges):
//     O(1) edge insertion and random-neighbor selection, O(V+E)
//     traversals, and membership tests that scan the shorter of the two
//     adjacency rows — O(min deg). The growth models only ever ask about
//     the joining node, which holds at most m links, so they never pay
//     more than m comparisons per query.
//  2. Multigraph tolerance: the configuration model (Appendix B of the
//     paper) wires random stub pairs first and deletes self-loops and
//     multi-edges afterwards, so the structure must represent them
//     faithfully until Simplify is called.
//  3. Deterministic iteration: neighbor order is insertion order, so a
//     fixed RNG seed reproduces identical graphs and search traces.
//
// Nodes are dense integer IDs 0..N-1. Adjacency is stored as per-node
// neighbor slices (int32 to halve memory at paper scale) and nothing else.
// A Graph answers only what growth and mutation ask — sizes, degrees,
// rows, membership, a random neighbor — and nothing else. Once a
// topology stops mutating, Freeze snapshots it into the CSR Frozen form
// (frozen.go): the flat read path every search kernel, traversal,
// structural metric, degree statistic and edge-list writer runs on, with
// binary-search membership for hub-to-hub queries.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNodeRange is returned when an operation references a node ID outside
// [0, N).
var ErrNodeRange = errors.New("graph: node out of range")

// Graph is an undirected graph (optionally a multigraph) over dense node IDs
// 0..N-1: the buffer a topology grows in. The zero value is an empty graph
// with no nodes; use New to pre-allocate. Graph is not safe for concurrent
// mutation; concurrent reads are safe. Analyses read its Freeze snapshot.
type Graph struct {
	adj   [][]int32
	edges int // number of edges counting multiplicity
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges, counting multiplicity. A self-loop counts
// as one edge.
func (g *Graph) M() int { return g.edges }

// AddNode appends an isolated node and returns its ID. On a graph an
// arena lent (CSRArena.Graph), the node reuses the row a node of that ID
// had in an earlier build, emptied but with its capacity kept.
func (g *Graph) AddNode() int {
	u := len(g.adj)
	if u < cap(g.adj) {
		g.adj = g.adj[:u+1]
		g.adj[u] = g.adj[u][:0]
	} else {
		g.adj = append(g.adj, nil)
	}
	return u
}

// reset empties g to n isolated nodes in place: the node table and every
// row, those beyond n included, keep their capacity for the next build.
func (g *Graph) reset(n int) {
	if n > cap(g.adj) {
		g.adj = slices.Grow(g.adj[:cap(g.adj)], n-cap(g.adj))
	}
	g.adj = g.adj[:n]
	for u := range g.adj {
		g.adj[u] = g.adj[u][:0]
	}
	g.edges = 0
}

// rangeErr builds the ErrNodeRange error for an edge {u,v} with at least
// one endpoint outside [0, N), naming the first bad one. Kept out of line
// so the bounds tests on the hot paths stay two compares.
func (g *Graph) rangeErr(u, v int) error {
	if uint(u) < uint(len(g.adj)) {
		u = v
	}
	return fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, u, len(g.adj))
}

// AddEdge inserts an undirected edge {u,v}. Parallel edges and self-loops
// are permitted (the configuration model needs them); use HasEdge to guard
// when building simple graphs. A self-loop appears twice in u's adjacency
// list, following the degree convention deg(u) += 2.
func (g *Graph) AddEdge(u, v int) error {
	if uint(u) >= uint(len(g.adj)) || uint(v) >= uint(len(g.adj)) {
		return g.rangeErr(u, v)
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.edges++
	return nil
}

// RemoveEdge deletes one copy of edge {u,v} if present, reporting whether an
// edge was removed. Each endpoint loses the first matching entry of its row
// (both entries of u's row for a self-loop).
func (g *Graph) RemoveEdge(u, v int) bool {
	if uint(u) >= uint(len(g.adj)) || uint(v) >= uint(len(g.adj)) {
		return false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	if !g.removeOneFromAdj(u, int32(v)) {
		return false
	}
	g.removeOneFromAdj(v, int32(u))
	g.edges--
	return true
}

// removeOneFromAdj removes the first occurrence of w from u's adjacency via
// swap-with-last (order of remaining neighbors is perturbed
// deterministically), reporting whether there was one.
func (g *Graph) removeOneFromAdj(u int, w int32) bool {
	a := g.adj[u]
	i := slices.Index(a, w)
	if i < 0 {
		return false
	}
	a[i] = a[len(a)-1]
	g.adj[u] = a[:len(a)-1]
	return true
}

// shorterRow returns the shorter of u's and v's adjacency rows and the
// endpoint to look for in it: every copy of {u,v} has one entry in each
// row (two in the single row of a self-loop).
func (g *Graph) shorterRow(u, v int) ([]int32, int32) {
	if len(g.adj[v]) < len(g.adj[u]) {
		return g.adj[v], int32(u)
	}
	return g.adj[u], int32(v)
}

// HasEdge reports whether at least one edge {u,v} exists. It scans the
// shorter of the two rows, O(min(deg u, deg v)): constant for the growth
// models' "is the joining node already linked to this candidate" (the
// joiner has at most m links), and linear only between two hubs, e.g. two
// of the degree-O(N) super-hubs of a no-cutoff HAPA graph. Read-heavy code
// freezes the graph and uses Frozen.HasEdge's binary search.
func (g *Graph) HasEdge(u, v int) bool {
	if uint(u) >= uint(len(g.adj)) || uint(v) >= uint(len(g.adj)) {
		return false
	}
	row, w := g.shorterRow(u, v)
	return slices.Contains(row, w)
}

// Degree returns the degree of u; self-loops count twice. Out-of-range
// nodes have degree 0.
func (g *Graph) Degree(u int) int {
	if uint(u) >= uint(len(g.adj)) {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors returns u's adjacency list. The returned slice is the internal
// storage: callers must not mutate it and must not hold it across
// mutations. Self-loops appear twice; parallel edges appear per copy.
func (g *Graph) Neighbors(u int) []int32 {
	if uint(u) >= uint(len(g.adj)) {
		return nil
	}
	return g.adj[u]
}

// TotalDegree returns the sum of all node degrees: 2·M, since every edge —
// a self-loop included — adds two adjacency entries.
func (g *Graph) TotalDegree() int { return 2 * g.edges }

// MaxDegree returns the largest degree over all nodes, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, a := range g.adj {
		if len(a) > maxDeg {
			maxDeg = len(a)
		}
	}
	return maxDeg
}

// Simplify removes all self-loops and collapses parallel edges to single
// edges, returning how many of each were deleted. This is the cleanup step
// of the configuration model (Appendix B): "after this procedure we simply
// delete the multiple connections and self-loops".
//
// Keys are processed in sorted order — the edge keys the writers read,
// taken from a snapshot of g — so the post-cleanup adjacency order, and
// therefore every downstream order-sensitive traversal, is identical
// across runs (the package's determinism guarantee). Simplify is the
// row-by-row reference SimplifyPairs, the configuration model's build, is
// held to.
func (g *Graph) Simplify() (selfLoops, multiEdges int) {
	keys := g.Freeze().sortedEdgeKeys()
	for i, key := range keys {
		u, v := int(key>>32), int(uint32(key))
		switch {
		case u == v:
			selfLoops++
			g.RemoveEdge(u, v)
		case i > 0 && keys[i-1] == key:
			multiEdges++
			g.RemoveEdge(u, v)
		}
	}
	return selfLoops, multiEdges
}

// randSource is the subset of xrand.RNG the graph package needs. Declared
// locally to keep the dependency direction substrate→graph acyclic and the
// package testable with fakes.
type randSource interface {
	Intn(n int) int
}

// RandomNeighbor returns a uniformly random neighbor of u, or -1 if u has
// none. Parallel edges weight their endpoint proportionally, matching a
// uniform choice over adjacency entries (the behavior random walks expect).
func (g *Graph) RandomNeighbor(u int, rng randSource) int {
	if uint(u) >= uint(len(g.adj)) || len(g.adj[u]) == 0 {
		return -1
	}
	return int(g.adj[u][rng.Intn(len(g.adj[u]))])
}
