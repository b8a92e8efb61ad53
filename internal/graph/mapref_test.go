package graph

import (
	"slices"
	"sort"
	"testing"
)

// mapGraph is the Graph this package shipped until the edge-multiplicity
// map was removed: per-node rows plus a global map[edgeKey]count, verbatim
// apart from the receiver type. It stays as the model the map-free Graph
// is fuzzed against — same answers, same adjacency order after every
// mutation, same Simplify counts.
type mapGraph struct {
	adj   [][]int32
	count map[uint64]int32
	edges int
}

func newMapGraph(n int) *mapGraph {
	return &mapGraph{adj: make([][]int32, n), count: make(map[uint64]int32, 4*n)}
}

func mapEdgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (g *mapGraph) ok(nodes ...int) bool {
	for _, u := range nodes {
		if u < 0 || u >= len(g.adj) {
			return false
		}
	}
	return true
}

func (g *mapGraph) AddEdge(u, v int) bool {
	if !g.ok(u, v) {
		return false
	}
	ui, vi := int32(u), int32(v)
	g.adj[u] = append(g.adj[u], vi)
	if u == v {
		g.adj[u] = append(g.adj[u], vi)
	} else {
		g.adj[v] = append(g.adj[v], ui)
	}
	g.count[mapEdgeKey(ui, vi)]++
	g.edges++
	return true
}

func (g *mapGraph) RemoveEdge(u, v int) bool {
	if !g.ok(u, v) {
		return false
	}
	key := mapEdgeKey(int32(u), int32(v))
	if g.count[key] == 0 {
		return false
	}
	g.count[key]--
	if g.count[key] == 0 {
		delete(g.count, key)
	}
	g.edges--
	g.removeOneFromAdj(u, int32(v))
	if u == v {
		g.removeOneFromAdj(u, int32(v))
	} else {
		g.removeOneFromAdj(v, int32(u))
	}
	return true
}

func (g *mapGraph) removeOneFromAdj(u int, w int32) {
	a := g.adj[u]
	for i, x := range a {
		if x == w {
			a[i] = a[len(a)-1]
			g.adj[u] = a[:len(a)-1]
			return
		}
	}
}

func (g *mapGraph) HasEdge(u, v int) bool {
	return g.ok(u, v) && g.count[mapEdgeKey(int32(u), int32(v))] > 0
}

func (g *mapGraph) EdgeMultiplicity(u, v int) int {
	if !g.ok(u, v) {
		return 0
	}
	return int(g.count[mapEdgeKey(int32(u), int32(v))])
}

func (g *mapGraph) Degree(u int) int {
	if !g.ok(u) {
		return 0
	}
	return len(g.adj[u])
}

func (g *mapGraph) TotalDegree() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

func (g *mapGraph) Simplify() (selfLoops, multiEdges int) {
	keys := make([]uint64, 0, len(g.count))
	for key := range g.count {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		c := g.count[key]
		u := int(int32(key >> 32))
		v := int(int32(uint32(key)))
		if u == v {
			for i := int32(0); i < c; i++ {
				selfLoops++
				g.RemoveEdge(u, v)
			}
			continue
		}
		for c > 1 {
			multiEdges++
			g.RemoveEdge(u, v)
			c--
		}
	}
	return selfLoops, multiEdges
}

// InducedSubgraph is the model of Frozen.InducedFrozen: the subgraph on
// nodes renumbered in list order, with each self-loop re-added at the end
// of its row.
func (g *mapGraph) InducedSubgraph(nodes []int) *mapGraph {
	idx := make(map[int32]int32, len(nodes))
	for i, u := range nodes {
		idx[int32(u)] = int32(i)
	}
	sub := newMapGraph(len(nodes))
	for i, u := range nodes {
		if !g.ok(u) {
			continue
		}
		for _, v := range g.adj[u] {
			j, ok := idx[v]
			if !ok {
				continue
			}
			if int32(i) < j {
				sub.adj[i] = append(sub.adj[i], j)
				sub.adj[j] = append(sub.adj[j], int32(i))
				sub.count[mapEdgeKey(int32(i), j)]++
				sub.edges++
			} else if int32(i) == j {
				sub.count[mapEdgeKey(int32(i), j)]++
			}
		}
	}
	for key, c := range sub.count {
		u := int32(key >> 32)
		v := int32(uint32(key))
		if u == v {
			c /= 2
			if c == 0 {
				delete(sub.count, key)
				continue
			}
			sub.count[key] = c
			for i := int32(0); i < 2*c; i++ {
				sub.adj[u] = append(sub.adj[u], u)
			}
			sub.edges += int(c)
		}
	}
	return sub
}

// freezeArrays is the CSR layout Freeze produces, built from the model's
// rows.
func (g *mapGraph) freezeArrays() (offsets, neighbors []int32) {
	offsets = make([]int32, len(g.adj)+1)
	for u, a := range g.adj {
		offsets[u+1] = offsets[u] + int32(len(a))
		neighbors = append(neighbors, a...)
	}
	return offsets, neighbors
}

// components is the model's connected components, found by union-find
// over its edge map rather than by traversal: largest first, ties by
// smallest member, members ascending.
func (g *mapGraph) components() [][]int {
	parent := make([]int, len(g.adj))
	for u := range parent {
		parent[u] = u
	}
	find := func(u int) int {
		for parent[u] != u {
			parent[u] = parent[parent[u]]
			u = parent[u]
		}
		return u
	}
	for key := range g.count {
		u, v := find(int(int32(key>>32))), find(int(int32(uint32(key))))
		parent[max(u, v)] = min(u, v)
	}
	// Ascending u: each group is created by its smallest member and
	// filled in ascending order.
	var comps [][]int
	group := make(map[int]int)
	for u := range g.adj {
		r := find(u)
		i, ok := group[r]
		if !ok {
			i = len(comps)
			group[r] = i
			comps = append(comps, nil)
		}
		comps[i] = append(comps[i], u)
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// requireMatchesModel asserts every observable of g against the model.
func requireMatchesModel(t *testing.T, step string, g *Graph, ref *mapGraph) {
	t.Helper()
	if g.N() != len(ref.adj) || g.M() != ref.edges || g.TotalDegree() != ref.TotalDegree() {
		t.Fatalf("%s: N/M/TotalDegree = %d/%d/%d, model %d/%d/%d",
			step, g.N(), g.M(), g.TotalDegree(), len(ref.adj), ref.edges, ref.TotalDegree())
	}
	for u := -1; u <= g.N(); u++ {
		if g.Degree(u) != ref.Degree(u) {
			t.Fatalf("%s: Degree(%d) = %d, model %d", step, u, g.Degree(u), ref.Degree(u))
		}
		if u >= 0 && u < g.N() && !slices.Equal(g.Neighbors(u), ref.adj[u]) {
			t.Fatalf("%s: row %d = %v, model %v", step, u, g.Neighbors(u), ref.adj[u])
		}
		for v := -1; v <= g.N(); v++ {
			if g.HasEdge(u, v) != ref.HasEdge(u, v) {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, model %v", step, u, v, g.HasEdge(u, v), ref.HasEdge(u, v))
			}
		}
	}
	requireFrozenMatchesModel(t, step+" (frozen)", g.Freeze(), ref)
}

// requireFrozenMatchesModel asserts a snapshot's CSR arrays, edge count,
// membership and multiplicity (out-of-range IDs included) and connected
// components against the model.
func requireFrozenMatchesModel(t *testing.T, step string, f *Frozen, ref *mapGraph) {
	t.Helper()
	offsets, neighbors := ref.freezeArrays()
	if !slices.Equal(f.offsets, offsets) || !slices.Equal(f.neighbors, neighbors) || f.M() != ref.edges {
		t.Fatalf("%s: CSR arrays differ from the model's", step)
	}
	for u := -1; u <= f.N(); u++ {
		for v := -1; v <= f.N(); v++ {
			if f.HasEdge(u, v) != ref.HasEdge(u, v) || f.EdgeMultiplicity(u, v) != ref.EdgeMultiplicity(u, v) {
				t.Fatalf("%s: HasEdge/EdgeMultiplicity(%d,%d) = %v/%d, model %v/%d", step, u, v,
					f.HasEdge(u, v), f.EdgeMultiplicity(u, v), ref.HasEdge(u, v), ref.EdgeMultiplicity(u, v))
			}
		}
	}
	if got, want := f.ConnectedComponents(), ref.components(); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Fatalf("%s: ConnectedComponents = %v, model %v", step, got, want)
	}
}

// FuzzGraphMatchesMapReference drives the map-free Graph and the map-backed
// model through the same random operation sequence — self-loops, parallel
// edges and out-of-range IDs included — and compares every observable
// after every step, the snapshot's components and induced snapshots
// included. Each input byte pair is one operation. The sequence runs
// twice: on a new Graph, and on the Graph an arena lends after it lent
// one for a different, larger graph, so the reset path — emptied rows
// that keep their capacity, AddNode reusing a row past the node count —
// is held to the same model.
func FuzzGraphMatchesMapReference(f *testing.F) {
	f.Add([]byte{0, 0x01, 0, 0x01, 0, 0x11, 0, 0x11, 3, 0})             // parallel pair, two self-loops, Simplify
	f.Add([]byte{0, 0x12, 0, 0x21, 0, 0x23, 1, 0x12, 1, 0x12, 1, 0x12}) // remove until absent
	f.Add([]byte{0, 0x22, 0, 0x22, 0, 0x02, 5, 0x2a, 5, 0x22, 5, 0x52}) // induced subgraph over loops, duplicate and out-of-range IDs
	f.Add([]byte{0, 0x34, 0, 0x43, 0, 0x44, 4, 0, 1, 0x34, 3, 0, 2, 0}) // re-check, remove, simplify, grow
	f.Add([]byte{0, 0x06, 1, 0x60, 0, 0x66, 1, 0x66, 0, 0xd1, 0, 0x01}) // out-of-range endpoints
	f.Add([]byte{2, 0, 2, 0, 0, 0x67, 0, 0x77, 2, 0, 0, 0x78, 1, 0x76}) // grow into rows the earlier graph filled
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			t.Skip("sequence too long for fuzz budget")
		}
		const n0 = 6
		replayOnModel(t, ops, New(n0), newMapGraph(n0))

		// The earlier graph spans every node ID the sequence can reach
		// (AddNode stops at 12), with a ring through all of them, a
		// self-loop, and the sequence's own pairs as edges, so each row
		// the replay reuses starts full and differs from the model's.
		arena := NewCSRArena()
		prev := arena.Graph(12)
		for u := 0; u < 12; u++ {
			prev.AddEdge(u, (u+1)%12)
		}
		prev.AddEdge(7, 7)
		for i := 0; i+1 < len(ops); i += 2 {
			prev.AddEdge(int(ops[i+1]>>4)%12, int(ops[i+1]&15)%12)
		}
		replayOnModel(t, ops, arena.Graph(n0), newMapGraph(n0))
	})
}

// replayOnModel runs one operation sequence on g and its model ref,
// requiring them to match after every step.
func replayOnModel(t *testing.T, ops []byte, g *Graph, ref *mapGraph) {
	t.Helper()
	requireMatchesModel(t, "start", g, ref)
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, ops[i+1]
		// IDs run one past the current node count so out-of-range
		// endpoints are drawn too.
		u, v := int(arg>>4)%(g.N()+1), int(arg&15)%(g.N()+1)
		step := ""
		switch op {
		case 0:
			step = "AddEdge"
			if (g.AddEdge(u, v) == nil) != ref.AddEdge(u, v) {
				t.Fatalf("AddEdge(%d,%d) acceptance differs", u, v)
			}
		case 1:
			step = "RemoveEdge"
			if g.RemoveEdge(u, v) != ref.RemoveEdge(u, v) {
				t.Fatalf("RemoveEdge(%d,%d) result differs", u, v)
			}
		case 2:
			step = "AddNode"
			if g.N() < 12 {
				g.AddNode()
				ref.adj = append(ref.adj, nil)
			}
		case 3:
			step = "Simplify"
			s, m := g.Simplify()
			rs, rm := ref.Simplify()
			if s != rs || m != rm {
				t.Fatalf("Simplify = (%d,%d), model (%d,%d)", s, m, rs, rm)
			}
		case 4:
			// A no-op that only re-checks: the code stays taken so every
			// input keeps decoding to the same operations.
			step = "Check"
		case 5:
			step = "InducedFrozen"
			// Node list from the two nibbles and their neighbors:
			// may repeat an ID and may hold N (out of range).
			nodes := []int{u, v, (u + 1) % (g.N() + 1), (v + 2) % (g.N() + 1)}
			sub, ids := g.Freeze().InducedFrozen(nodes)
			if !slices.Equal(ids, nodes) {
				t.Fatalf("InducedFrozen mapping %v, want %v", ids, nodes)
			}
			requireFrozenMatchesModel(t, "InducedFrozen result", sub, ref.InducedSubgraph(nodes))
		}
		requireMatchesModel(t, step, g, ref)
	}
}
