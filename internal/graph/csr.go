package graph

// Direct-to-CSR construction: CSRBuilder accepts an edge stream into
// per-chunk append-only buffers and finalizes a *Frozen via a parallel
// two-pass count/scatter, skipping the mutable Graph entirely.
//
// The mutable Graph pays two costs per inserted edge that a read-only
// topology never recoups: per-node []int32 append churn (each adjacency
// list regrows O(log deg) times) and the final Freeze copy of everything
// into CSR form. Generators that never query the graph mid-build — CM
// wires precomputed stub pairs, GRN connects precomputed points — only
// need the CSR end state, so they emit raw (u,v) pairs here instead.
// Growth models (PA, HAPA, DAPA) genuinely need mid-build
// HasEdge/Degree and stay on Graph.
//
// Determinism contract (pinned by the equivalence and fuzz tests): the
// chunk index order IS the emission order. Finalizing chunks c0, c1, ...
// yields a Frozen byte-identical to calling Graph.AddEdge for every pair
// of c0 in order, then every pair of c1, ..., followed by Freeze — for
// every worker count. FinalizeSimplified additionally replays
// Graph.Simplify's deletion pass (ascending edge keys, swap-with-last
// adjacency removal) on the CSR arrays, so its output is byte-identical
// to Graph+Simplify+Freeze on the same stream.

// CSRArena recycles a builder's large transient buffers — the per-chunk
// edge buffers plus the count/scatter and dedup scratch arrays — across
// consecutive builds. The experiment pipeline gives each build worker one
// arena, so back-to-back realizations at xl scale (N=10⁶, ~10⁷ adjacency
// entries) reuse tens of megabytes instead of re-growing them from zero
// under the GC. An arena serves one build at a time and must not be
// shared between concurrent builders; a nil *CSRArena is valid everywhere
// and simply allocates fresh.
type CSRArena struct {
	// chunks retains the per-chunk edge buffers between builds. The
	// builder aliases this slice, so capacity grown during a build is
	// kept automatically.
	chunks [][]int32
	// free holds released scratch buffers, reused smallest-fit.
	free [][]int32
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

// Grab returns an int32 scratch buffer of length n with unspecified
// contents, reusing the smallest retained buffer that fits. Generators
// use it for build-side scratch that dies with the build (stub lists,
// spatial-hash tables); buffers that escape into a Frozen must never come
// from an arena.
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

// Release returns a scratch buffer to the arena for reuse.
func (a *CSRArena) Release(b []int32) {
	if a == nil || cap(b) == 0 {
		return
	}
	a.free = append(a.free, b[:0])
}

// CSRBuilder accumulates an edge stream for one topology build. Edges go
// into per-chunk buffers — append-only, no membership map, no per-node
// slices — and Finalize/FinalizeSimplified turn the stream into a
// *Frozen. A builder is single-use: emit, finalize once, discard.
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

// Reserve pre-sizes a chunk's buffer for `edges` edges, for emitters that
// know their chunk's volume up front (CM's stub pairing does).
func (b *CSRBuilder) Reserve(chunk, edges int) {
	if cap(b.chunks[chunk]) < 2*edges {
		grown := make([]int32, len(b.chunks[chunk]), 2*edges)
		copy(grown, b.chunks[chunk])
		b.chunks[chunk] = grown
	}
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
// offsets, then scatter neighbors in emission order. offsets must have
// n+1 entries; it receives the CSR offsets. The returned neighbor array
// is dst when it fits, so callers choose whether the multigraph adjacency
// lives in fresh memory (it escapes into the Frozen) or arena scratch (it
// is an intermediate the simplify pass compacts away). Returns the
// neighbor array and the edge count.
func (b *CSRBuilder) scatter(workers int, offsets []int32, grabDst func(n int) []int32) ([]int32, int) {
	n := b.n
	segs := segmentChunks(b.chunks, workers)
	ns := len(segs)
	counts := make([][]int32, ns)
	for s := range counts {
		counts[s] = b.arena.Grab(n)
		clear(counts[s])
	}
	total := 0
	for _, c := range b.chunks {
		total += len(c)
	}

	// Pass 1: per-segment degree histograms.
	forSegments(segs, func(s int) {
		cnt := counts[s]
		for _, ch := range b.chunks[segs[s][0]:segs[s][1]] {
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
	})

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
	neighbors := grabDst(total)
	forSegments(segs, func(s int) {
		pos := counts[s]
		for _, ch := range b.chunks[segs[s][0]:segs[s][1]] {
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
	})
	for s := range counts {
		b.arena.Release(counts[s])
	}
	return neighbors, total / 2
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
	f := &Frozen{offsets: make([]int32, b.n+1)}
	var neighbors []int32
	neighbors, f.edges = b.scatter(workers, f.offsets, func(n int) []int32 { return make([]int32, n) })
	f.neighbors = neighbors
	if sorted {
		f.MaterializeSorted(workers)
	}
	return f
}

// FinalizeSimplified builds the Frozen snapshot of the emitted stream
// after the configuration model's cleanup: all self-loops and all but one
// copy of each parallel edge deleted. It returns the snapshot plus the
// deletion counts, matching Graph.Simplify's (selfLoops, multiEdges)
// report exactly.
//
// Byte-for-byte equivalence with the legacy path is the whole point, so
// the deletions replay Graph.Simplify literally: duplicates are detected
// on the sorted CSR ranges (ascending (min,max) key order — the same
// order Simplify visits its sorted edge keys) and each deletion
// removes the first matching adjacency entry by swap-with-last, exactly
// as Graph.RemoveEdge perturbs surviving neighbor order. The sorted
// ranges of the dedup scan are arena scratch; the result's own membership
// ranges are built by its first membership query, like any other Frozen.
func (b *CSRBuilder) FinalizeSimplified(workers int) (*Frozen, int, int) {
	if workers < 1 {
		workers = 1
	}
	n := b.n
	offsets0 := b.arena.Grab(n + 1)
	neighbors0, edges0 := b.scatter(workers, offsets0, b.arena.Grab)
	sorted0 := b.arena.Grab(len(neighbors0))
	if workers > 1 {
		fillSortedParallel(sorted0, offsets0, neighbors0, workers)
	} else {
		next := b.arena.Grab(n)
		fillSortedTranspose(sorted0, next, offsets0, neighbors0)
		b.arena.Release(next)
	}

	// Replay Simplify: scan each node's sorted range ascending — node
	// order ascending, values ascending — which enumerates the edge keys
	// (u<=v pairs, via the v>=u half of each range) in exactly the sorted
	// key order Simplify uses. Deletions mutate only the live prefixes of
	// neighbors0, never sorted0, so the scan and the replay interleave
	// safely.
	lens := b.arena.Grab(n)
	for u := 0; u < n; u++ {
		lens[u] = offsets0[u+1] - offsets0[u]
	}
	removeFirst := func(u int, w int32) {
		row := neighbors0[offsets0[u] : offsets0[u]+lens[u]]
		for i, x := range row {
			if x == w {
				row[i] = row[len(row)-1]
				lens[u]--
				return
			}
		}
	}
	selfLoops, multiEdges := 0, 0
	for u := 0; u < n; u++ {
		row := sorted0[offsets0[u]:offsets0[u+1]]
		for i := 0; i < len(row); {
			v := row[i]
			j := i + 1
			for j < len(row) && row[j] == v {
				j++
			}
			c := j - i
			if int(v) == u {
				// c adjacency entries = c/2 self-loops; delete them all.
				// Each RemoveEdge(u,u) strips two entries from u's row.
				for k := 0; k < c/2; k++ {
					selfLoops++
					removeFirst(u, v)
					removeFirst(u, v)
				}
			} else if int(v) > u && c > 1 {
				// Parallel edges: keep one copy, delete c-1, each
				// RemoveEdge(u,v) stripping one entry from both rows.
				for k := 0; k < c-1; k++ {
					multiEdges++
					removeFirst(u, v)
					removeFirst(int(v), int32(u))
				}
			}
			i = j
		}
	}

	// Compact the survivors into exact-size final arrays.
	f := &Frozen{
		offsets: make([]int32, n+1),
		edges:   edges0 - selfLoops - multiEdges,
	}
	for u := 0; u < n; u++ {
		f.offsets[u+1] = f.offsets[u] + lens[u]
	}
	f.neighbors = make([]int32, f.offsets[n])
	parallelNodeRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(f.neighbors[f.offsets[u]:f.offsets[u+1]], neighbors0[offsets0[u]:offsets0[u]+lens[u]])
		}
	})

	b.arena.Release(lens)
	b.arena.Release(sorted0)
	b.arena.Release(neighbors0)
	b.arena.Release(offsets0)
	return f, selfLoops, multiEdges
}
