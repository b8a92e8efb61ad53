package graph

import "slices"

// Direct-to-CSR construction: a pair stream — a CSRBuilder's per-chunk
// append-only buffers, or one caller-held array (SimplifyPairs) — is
// turned into a *Frozen by a two-pass count/scatter straight into the
// snapshot's arrays, skipping the mutable Graph entirely.
//
// The mutable Graph pays two costs per inserted edge that a read-only
// topology never recoups: per-node []int32 append churn (each adjacency
// list regrows O(log deg) times) and the final Freeze copy of everything
// into CSR form. Generators that never query the graph mid-build — CM
// wires precomputed stub pairs, GRN connects precomputed points — only
// need the CSR end state: GRN emits raw (u,v) pairs into a CSRBuilder,
// and CM hands its shuffled stub array to SimplifyPairs as the stream.
// Growth models (PA, HAPA, DAPA) genuinely need mid-build
// HasEdge/Degree and grow a Graph; given an arena, they grow the one it
// lends (CSRArena.Graph), whose rows keep their capacity from build to
// build, and freeze it with CSRArena.Freeze, which — like Finalize and
// SimplifyPairs — refills a retired snapshot's arrays (Recycle), so a
// warm build's new memory is little more than a few headers.
//
// Determinism contract (pinned by the equivalence and fuzz tests): the
// chunk index order IS the emission order. Finalizing chunks c0, c1, ...
// yields a Frozen byte-identical to calling Graph.AddEdge for every pair
// of c0 in order, then every pair of c1, ..., followed by Freeze — for
// every worker count. SimplifyPairs additionally replays
// Graph.Simplify's deletions (ascending edge keys, swap-with-last
// adjacency removal) on the scattered rows, one row at a time, O(1) per
// deletion beside at most one sort per duplicated value (replayRow), so
// its output is byte-identical to Graph+Simplify+Freeze on the same
// stream.

// CSRArena lends one build lane's builds their working set, so that a
// lane's Nth build allocates little beyond the result it returns: the
// direct-to-CSR builders' per-chunk edge buffers and count/scatter/replay
// scratch, the growth models' Graph (Graph) and ID tables (Ints), and
// every generator's int32 scratch (Grab/Release: stub lists, degree
// sequences, flood marks and queues, spatial-hash tables). The experiment
// engine gives each build lane one arena and hands it on to later lanes
// when the lane ends, so back-to-back realizations reuse that memory
// instead of re-growing it from zero under the GC.
//
// What a build gets from an arena stays valid until the arena's next
// build, which takes it back: a caller must freeze or use up a lent Graph,
// and drop the ID tables, before it builds on the same arena again. A
// Frozen's arrays come from an arena only through Recycle: a snapshot a
// freeze returns outlives every later build, and its arrays stay valid
// until its owner retires it by handing it to Recycle, after which the
// next freeze may refill them (the engine retires each snapshot a lane
// minted once its last sweep has returned, and a sweep keeps no reference
// to the snapshot past its return). An arena serves one build at a time
// and must not be shared between concurrent builders; a nil *CSRArena is
// valid everywhere and simply allocates fresh.
type CSRArena struct {
	// chunks retains the per-chunk edge buffers between builds. The
	// builder aliases this slice, so capacity grown during a build is
	// kept automatically.
	chunks [][]int32
	// free holds released scratch buffers, reused smallest-fit.
	free [][]int32
	// graph is the growth graph Graph lends, reset in place by each call.
	graph *Graph
	// ints are the tables Ints lends, in call order since the last Graph
	// call; lent counts those handed out since then.
	ints [][]int
	lent int
	// retired is the snapshot Recycle handed in, whose arrays the next
	// freeze refills; nil when there is none or a freeze used it up.
	retired *Frozen
}

// NewCSRArena returns an empty arena.
func NewCSRArena() *CSRArena { return &CSRArena{} }

// chunkBuffers hands out `count` append-ready edge buffers (length 0,
// capacities retained from earlier builds).
func (a *CSRArena) chunkBuffers(count int) [][]int32 {
	if a == nil {
		return make([][]int32, count)
	}
	for len(a.chunks) < count {
		a.chunks = append(a.chunks, nil)
	}
	bufs := a.chunks[:count]
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	return bufs
}

// Graph lends the arena's growth graph, emptied to n isolated nodes: the
// graph a growth build mutates and then freezes. Every row keeps the
// capacity earlier builds grew, rows beyond n included (AddNode reuses
// them), so a build of the same shape appends without allocating. The
// call starts a build: it takes back the graph and every table Ints lent
// since the previous call. A nil arena returns New(n).
func (a *CSRArena) Graph(n int) *Graph {
	if a == nil {
		return New(n)
	}
	if a.graph == nil {
		a.graph = &Graph{}
	}
	a.graph.reset(n)
	a.lent = 0
	return a.graph
}

// Ints lends an int table of length n with unspecified contents, for the
// node-ID maps a growth build returns beside its Graph (DAPA's overlay and
// substrate IDs). Like the Graph, it stays valid until the arena's next
// Graph call, which takes it back; the k-th call after that one reuses the
// k-th table. A nil arena allocates.
func (a *CSRArena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	if a.lent == len(a.ints) {
		a.ints = append(a.ints, nil)
	}
	if cap(a.ints[a.lent]) < n {
		a.ints[a.lent] = make([]int, n)
	}
	b := a.ints[a.lent][:n]
	a.lent++
	return b
}

// Grab returns an int32 scratch buffer of length n with unspecified
// contents, reusing the smallest retained buffer that fits. Generators
// use it for build-side scratch that dies with the build (stub lists,
// degree sequences, flood marks and queues, spatial-hash tables) and hand
// it back with Release; buffers that escape into a Frozen must never come
// from Grab.
func (a *CSRArena) Grab(n int) []int32 {
	if a != nil {
		best := -1
		for i, b := range a.free {
			if cap(b) >= n && (best < 0 || cap(b) < cap(a.free[best])) {
				best = i
			}
		}
		if best >= 0 {
			b := a.free[best]
			last := len(a.free) - 1
			a.free[best] = a.free[last]
			a.free = a.free[:last]
			return b[:n]
		}
	}
	return make([]int32, n)
}

// Release returns a scratch buffer to the arena for reuse, with whatever
// capacity appends grew it to.
func (a *CSRArena) Release(b []int32) {
	if a == nil || cap(b) == 0 {
		return
	}
	a.free = append(a.free, b[:0])
}

// Recycle hands the arena a retired snapshot — one nothing will read
// again — whose offsets and neighbors its next freeze (Freeze, Finalize,
// SimplifyPairs) refills when they are large enough, replacing any
// snapshot it already holds; SimplifyPairs needs neighbors with room for
// the multigraph it cleans up in place.
// The refilled snapshot gets a fresh header, so nothing of f but its
// arrays' storage carries over. A nil f, or a nil arena, is a no-op.
func (a *CSRArena) Recycle(f *Frozen) {
	if a != nil && f != nil {
		a.retired = f
	}
}

// Reclaim takes back the snapshot Recycle handed in when no freeze has
// used it up since (nil otherwise), so its owner can offer it to another
// build.
func (a *CSRArena) Reclaim() *Frozen {
	if a == nil {
		return nil
	}
	f := a.retired
	a.retired = nil
	return f
}

// Freeze is g.FreezePar(workers) into the arrays of the snapshot Recycle
// handed in, where they fit: the freeze of a growth build on a lane. A nil
// arena allocates, exactly as FreezePar.
func (a *CSRArena) Freeze(g *Graph, workers int) *Frozen { return g.freeze(workers, a) }

// csrArrays returns the arrays of a new snapshot of n nodes and total
// adjacency entries, contents unspecified: the retired snapshot's where
// they are large enough, fresh ones where they are not. Taking either
// array uses the retired snapshot up, and its header is emptied, so a
// reader that kept it past its retirement fails loudly instead of reading
// another topology; one too small for both stays for Reclaim.
func (a *CSRArena) csrArrays(n, total int) (offsets, neighbors []int32) {
	var old *Frozen
	if a != nil {
		old = a.retired
	}
	refillOffsets := old != nil && cap(old.offsets) >= n+1
	refillNeighbors := old != nil && cap(old.neighbors) >= total
	if refillOffsets {
		offsets = old.offsets[:n+1]
	} else {
		offsets = make([]int32, n+1)
	}
	if refillNeighbors {
		neighbors = old.neighbors[:total]
	} else {
		neighbors = make([]int32, total)
	}
	if refillOffsets || refillNeighbors {
		old.offsets, old.neighbors, old.sorted = nil, nil, nil
		a.retired = nil
	}
	return offsets, neighbors
}

// CSRBuilder accumulates an edge stream for one topology build. Edges go
// into per-chunk buffers — append-only, no membership map, no per-node
// slices — and Finalize turns the stream into a *Frozen. A builder is single-use: emit, finalize once, discard.
//
// Emitters append concurrently as long as each goroutine owns disjoint
// chunk indices (the gen package's fixed-boundary chunking); Edge does no
// validation, so callers must emit node IDs in [0, n).
type CSRBuilder struct {
	n      int
	chunks [][]int32
	arena  *CSRArena
}

// NewCSRBuilder returns a builder for a graph on n nodes whose edge
// stream arrives in chunkCount ordered chunks. arena may be nil.
func NewCSRBuilder(n, chunkCount int, arena *CSRArena) *CSRBuilder {
	return &CSRBuilder{n: n, chunks: arena.chunkBuffers(chunkCount), arena: arena}
}

// Edge appends the undirected edge {u,v} to the given chunk. Self-loops
// and parallel edges are permitted, exactly as Graph.AddEdge.
func (b *CSRBuilder) Edge(chunk int, u, v int32) {
	b.chunks[chunk] = append(b.chunks[chunk], u, v)
}

// segmentChunks partitions the chunk list into at most ~workers
// contiguous segments of roughly equal edge volume. Segment boundaries
// affect only load balance, never the result: the scatter reserves
// per-row space segment by segment in segment order, so the concatenated
// layout is always the global emission order regardless of how many
// segments carve it up.
func segmentChunks(chunks [][]int32, workers int) [][2]int {
	if len(chunks) == 0 {
		return nil
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if workers < 1 {
		workers = 1
	}
	per := (total + workers - 1) / workers
	if per < 1 {
		// Empty stream: without the clamp every chunk would close its own
		// segment, costing one n-sized count array (and one goroutine)
		// per chunk for a graph with no edges at all.
		per = 1
	}
	segs := make([][2]int, 0, workers+1)
	start, acc := 0, 0
	for i := range chunks {
		acc += len(chunks[i])
		if acc >= per || i == len(chunks)-1 {
			segs = append(segs, [2]int{start, i + 1})
			start, acc = i+1, 0
		}
	}
	return segs
}

// forSegments runs fn(seg) for every segment index, fanning out across
// goroutines when there is more than one segment. fn must write only
// segment-disjoint state.
func forSegments(segs [][2]int, fn func(s int)) {
	if len(segs) <= 1 {
		if len(segs) == 1 {
			fn(0)
		}
		return
	}
	done := make(chan struct{})
	for s := range segs {
		go func(s int) {
			fn(s)
			done <- struct{}{}
		}(s)
	}
	for range segs {
		<-done
	}
}

// scatter is the two-pass core: count per-node degrees, prefix-sum
// offsets, then scatter neighbors in emission order. chunks is the pair
// stream in emission order; offsets (n+1 entries) receives the CSR
// offsets and neighbors (one entry per stream entry) the multigraph
// adjacency. Returns the edge count.
func scatter(n int, chunks [][]int32, workers int, arena *CSRArena, offsets, neighbors []int32) int {
	segs := segmentChunks(chunks, workers)
	ns := len(segs)
	counts := make([][]int32, ns)
	for s := range counts {
		counts[s] = arena.Grab(n)
		clear(counts[s])
	}
	// Pass 1: per-segment degree histograms.
	forSegments(segs, func(s int) { countPairs(counts[s], chunks[segs[s][0]:segs[s][1]]) })

	// Offsets: sum the segment histograms per node, then prefix-sum.
	parallelNodeRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			d := int32(0)
			for s := 0; s < ns; s++ {
				d += counts[s][u]
			}
			offsets[u+1] = d
		}
	})
	offsets[0] = 0
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	// Turn each segment's histogram into its absolute write positions:
	// segment s starts where segments 0..s-1 ended, preserving emission
	// order across the segment boundary.
	parallelNodeRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			pos := offsets[u]
			for s := 0; s < ns; s++ {
				c := counts[s][u]
				counts[s][u] = pos
				pos += c
			}
		}
	})

	// Pass 2: scatter in emission order within each segment.
	forSegments(segs, func(s int) { scatterPairs(counts[s], neighbors, chunks[segs[s][0]:segs[s][1]]) })
	for s := range counts {
		arena.Release(counts[s])
	}
	return len(neighbors) / 2
}

// countPairs adds each pair's two adjacency entries to cnt.
func countPairs(cnt []int32, chunks [][]int32) {
	for _, ch := range chunks {
		for i := 0; i+1 < len(ch); i += 2 {
			u, v := ch[i], ch[i+1]
			cnt[u]++
			if u == v {
				cnt[u]++ // a self-loop appears twice, as in Graph
			} else {
				cnt[v]++
			}
		}
	}
}

// scatterPairs writes each pair's two adjacency entries at pos, the next
// free slot of every row, advancing it.
func scatterPairs(pos, neighbors []int32, chunks [][]int32) {
	for _, ch := range chunks {
		for i := 0; i+1 < len(ch); i += 2 {
			u, v := ch[i], ch[i+1]
			neighbors[pos[u]] = v
			pos[u]++
			if u == v {
				neighbors[pos[u]] = u
				pos[u]++
			} else {
				neighbors[pos[v]] = u
				pos[v]++
			}
		}
	}
}

// Finalize builds the Frozen snapshot of the emitted stream as-is
// (multigraph faithful, like Graph+Freeze). With sorted true the
// binary-search membership ranges are built before returning
// (MaterializeSorted); otherwise the first membership query builds them.
// workers bounds internal parallelism; the snapshot is identical for
// every value.
func (b *CSRBuilder) Finalize(workers int, sorted bool) *Frozen {
	if workers < 1 {
		workers = 1
	}
	total := 0
	for _, c := range b.chunks {
		total += len(c)
	}
	f := &Frozen{}
	f.offsets, f.neighbors = b.arena.csrArrays(b.n, total)
	f.edges = scatter(b.n, b.chunks, workers, b.arena, f.offsets, f.neighbors)
	if sorted {
		f.MaterializeSorted(workers)
	}
	return f
}

// SimplifyPairs builds the Frozen snapshot of a pair stream after the
// configuration model's cleanup: all self-loops and all but one copy of
// each parallel edge deleted. pairs, of even length, holds the edges
// {pairs[2i], pairs[2i+1]} in emission order (node IDs in [0, n),
// self-loops and parallel edges allowed); CM's shuffled stub array is
// exactly such a stream. It returns the snapshot plus the deletion
// counts, matching Graph.Simplify's (selfLoops, multiEdges) report
// exactly, and its bytes are Graph+Simplify+Freeze's on the same stream
// for every workers value: the multigraph is scattered into the
// snapshot's own arrays, reading pairs where it lies, Simplify's
// deletions are replayed row by row in place (replayRow), and the
// survivors are compacted left. pairs is only read, and not retained: the
// caller may reuse it once SimplifyPairs returns.
//
// The snapshot's neighbor array keeps the multigraph's capacity, so it
// holds the deleted entries' memory for its lifetime. That is what lets
// it refill a retired one through arena (Recycle), which it does only if
// that one has room for the multigraph. Its membership ranges are built
// by its first membership query, like any other Frozen's.
func SimplifyPairs(n int, pairs []int32, workers int, arena *CSRArena) (*Frozen, int, int) {
	if workers < 1 {
		workers = 1
	}
	// Split the array into ~workers pair-aligned pieces so the scatter's
	// segments fan out; where the cuts fall never changes the result.
	per := (len(pairs)/2 + workers - 1) / workers * 2
	pieces := make([][]int32, 0, workers)
	for lo := 0; lo < len(pairs); lo += per {
		pieces = append(pieces, pairs[lo:min(lo+per, len(pairs))])
	}
	offsets, neighbors := arena.csrArrays(n, len(pairs))
	edges := scatter(n, pieces, workers, arena, offsets, neighbors)

	// Replay Simplify row by row — its deletions touch each row
	// independently, RemoveEdge(u,v) stripping one entry from u's row
	// and one from v's — and move each row's survivors left to its new
	// offset as soon as it is done, in place: the new offset never passes
	// the old one, so no row is overwritten before its replay.
	maxRow := int32(0)
	for u := 0; u < n; u++ {
		maxRow = max(maxRow, offsets[u+1]-offsets[u])
	}
	var r rowReplay
	r.grab(arena, n, int(maxRow))
	start, live := int32(0), int32(0)
	for u := 0; u < n; u++ {
		end := offsets[u+1]
		l := r.replayRow(int32(u), neighbors[start:end])
		copy(neighbors[live:], neighbors[start:start+l])
		live += l
		offsets[u+1] = live
		start = end
	}
	arena.Release(r.base)
	f := &Frozen{offsets: offsets, neighbors: neighbors[:live], edges: edges - r.selfLoops - r.multiEdges}
	return f, r.selfLoops, r.multiEdges
}

// rowReplay is the scratch for replaying Graph.Simplify on CSR rows, and
// its tally of the deletions.
type rowReplay struct {
	// base is the one arena buffer the fields below are carved from.
	base []int32
	// mark is indexed by node and zero between rows; within a row it
	// first counts each value's copies, then holds its list index + 1.
	mark []int32
	// vals are the row's values with pending deletions, ascending; the
	// live positions of vals[k] are pos[lo[k]:hi[k]], and where[p] is the
	// index in pos that holds position p.
	vals, lo, hi, pos, where []int32

	selfLoops, multiEdges int
}

// grab carves the scratch for rows of up to maxRow entries on n nodes
// out of one arena buffer. A row has at most maxRow/2 values with two or
// more copies, and at most maxRow positions among them.
func (r *rowReplay) grab(arena *CSRArena, n, maxRow int) {
	half := maxRow / 2
	r.base = arena.Grab(n + 3*half + 2*maxRow)
	clear(r.base[:n])
	r.mark = r.base[:n]
	r.vals = r.base[n : n+half]
	r.lo = r.base[n+half : n+2*half]
	r.hi = r.base[n+2*half : n+3*half]
	r.pos = r.base[n+3*half : n+3*half+maxRow]
	r.where = r.base[n+3*half+maxRow:]
}

// replayRow applies to row, node u's multigraph adjacency, the deletions
// Graph.Simplify makes in it, and returns the length of the live prefix
// that remains. Simplify visits edge keys (min, max) ascending, so row u
// receives its deletions in ascending value order: for each value v ≠ u
// with c copies, c−1 RemoveEdge(u, v) — each taking v's first live copy
// by swap-with-last — and for v = u every copy, two per self-loop. Each
// deletion is O(1): the hole is v's smallest live position, and when the
// entry swapped into it is a value still to come, that value's position
// moves from the row's last to the hole in place, so its positions,
// collected ascending, may fall out of order; they are sorted once, at
// the value's turn. A row of length L thus costs O(L log L) at worst,
// and O(L) when nothing moves out of order.
func (r *rowReplay) replayRow(u int32, row []int32) int32 {
	mark := r.mark
	for _, x := range row {
		mark[x]++
	}
	vals := r.vals[:0]
	for _, x := range row {
		switch c := mark[x]; {
		case c == 1:
			mark[x] = 0
		case c > 1:
			vals = append(vals, x)
			mark[x] = -c // collected; the count is kept negated
		}
	}
	if len(vals) == 0 {
		return int32(len(row))
	}
	slices.Sort(vals)
	lo, hi, pos, where := r.lo, r.hi, r.pos, r.where
	next := int32(0)
	for k, v := range vals {
		lo[k], hi[k] = next, next
		next -= mark[v]
		mark[v] = int32(k + 1)
	}
	for p, x := range row {
		if k := mark[x] - 1; k >= 0 {
			pos[hi[k]] = int32(p)
			where[p] = hi[k]
			hi[k]++
		}
	}

	last := int32(len(row)) - 1
	for k, v := range vals {
		del := hi[k] - lo[k] - 1
		switch {
		case v == u:
			del++ // every copy: c/2 self-loops
			r.selfLoops += int(del) / 2
		case v > u:
			r.multiEdges += int(del) // counted once, from the smaller endpoint's row
		}
		if live := pos[lo[k]:hi[k]]; !slices.IsSorted(live) {
			slices.Sort(live)
		}
		for ; del > 0; del-- {
			x := row[last]
			if x == v {
				// v's own last copy fills the hole: v keeps its smallest
				// position and loses its largest.
				hi[k]--
			} else {
				i := pos[lo[k]]
				row[i] = x
				lo[k]++
				if mark[x]-1 > int32(k) {
					// x is still to come: its position last becomes i.
					pos[where[last]] = i
					where[i] = where[last]
				}
			}
			last--
		}
		mark[v] = 0
	}
	return last + 1
}
