package search

import (
	"fmt"
	"math/bits"

	"scalefree/internal/graph"
)

// MaxBatch is the widest source batch FloodBatch accepts: one bit of a
// machine word per source.
const MaxBatch = 64

// batchState is the per-node state of one FloodBatch call. Bit i of every
// word belongs to source i of the batch.
type batchState struct {
	// words holds three words per node, sliced per call into seen (sources
	// that have discovered v at any depth so far), visit (sources whose
	// current frontier contains v) and next (sources that discovered v while
	// expanding the current level).
	words []uint64
	// results is the per-source Result header array handed back to callers.
	results [MaxBatch]Result
	// dense and thin count the levels of the last call by mode (tests only).
	dense, thin int
}

// FloodBatch floods from up to MaxBatch sources at once and returns, for
// source i, exactly the Hits and Messages series Flood(f, srcs[i], maxTTL)
// returns — equal sources, isolated sources, exhausted components and
// maxTTL == 0 included — or the validation error of the first offending
// source. The Results alias s like every other Scratch result.
//
// It is the bit-parallel multi-source BFS: a figure reads only the per-TTL
// counts of each source, never the discovery order, so one adjacency scan
// of a frontier node v serves every source whose frontier contains v. A
// level runs in one of two modes, chosen from the frontier size alone:
//
//   - dense (MS-BFS's aggregated neighbour processing): scatter
//     next[w] |= visit[v] over the frontier's arcs with no test, then filter
//     next &^ seen in one sequential pass over the nodes. It costs the
//     frontier's arcs, each one random read-modify-write, plus one pass over
//     N words; seen is read once per node, in order, and the new frontier
//     comes out in ascending node order for free.
//   - thin: test vv &^ seen[w] on every arc and list a node when its first
//     new bit arrives. It costs the frontier's arcs only, each with a second
//     random load and two unpredictable branches, so the ~90 small levels of
//     a long-diameter overlay never pay for N.
//
// The two emit the same frontier set in a different order, and nothing
// below depends on the order. Kernels that need discovery order or a target
// depth (hybrid, ring) keep using the queue kernel, which also stays faster
// for a single source.
func (s *Scratch) FloodBatch(f *graph.Frozen, srcs []int, maxTTL int) ([]Result, error) {
	k := len(srcs)
	if k > MaxBatch {
		return nil, fmt.Errorf("search: batch of %d sources exceeds %d", k, MaxBatch)
	}
	for _, src := range srcs {
		if err := validate(f, src, maxTTL); err != nil {
			return nil, err
		}
	}
	s.reset()
	n := f.N()
	if s.batch == nil {
		s.batch = &batchState{}
	}
	b := s.batch
	if cap(b.words) < 3*n {
		b.words = make([]uint64, 3*n)
	}
	// Cleared up front rather than trusted to be clean: a sweep that stops
	// at maxTTL leaves its last frontier in visit.
	words := b.words[:3*n]
	clear(words)
	seen, visit, next := words[:n], words[n:2*n], words[2*n:]
	// A dense level writes its frontier by index, so both queues must hold
	// every node; no level finds more, so thin levels never regrow them.
	if cap(s.cur) < n || cap(s.next) < n {
		s.cur, s.next = make([]int32, 0, n), make([]int32, 0, n)
	}

	// Row i of hits/msgs collects per-level increments and is prefix-summed
	// at the end, which also carries an exhausted source's totals forward to
	// maxTTL exactly as the single-source sweep's tail fill does.
	L := maxTTL + 1
	hits, msgs := s.intBuf(k*L), s.intBuf(k*L)
	active, found := s.cur[:0], s.next[:0]
	for i, src := range srcs {
		bit := uint64(1) << uint(i)
		if visit[src] == 0 {
			active = append(active, int32(src))
		}
		visit[src] |= bit
		seen[src] |= bit
		hits[i*L] = 1
		if maxTTL > 0 {
			msgs[i*L+1] = f.Degree(src) // the source forwards to every neighbor
		}
	}

	b.dense, b.thin = 0, 0
	for d := 1; d <= maxTTL && len(active) > 0; d++ {
		// Below n/16 frontier nodes the N-word pass of a dense level costs
		// more than the per-arc tests it saves; BenchmarkFloodSweep pins the
		// constant on the CM set (dense pays) and the long-diameter set
		// (thin pays), and both are flat from n/8 to n/32.
		if len(active) < n/16 {
			b.thin++
			for _, v := range active {
				vv := visit[v]
				visit[v] = 0
				for _, w := range f.Neighbors(int(v)) {
					if nw := vv &^ seen[w]; nw != 0 {
						if next[w] == 0 {
							found = append(found, w)
						}
						next[w] |= nw
						seen[w] |= nw
					}
				}
			}
		} else {
			b.dense++
			for _, v := range active {
				vv := visit[v]
				visit[v] = 0
				for _, w := range f.Neighbors(int(v)) {
					next[w] |= vv
				}
			}
			// Every node is written as a candidate and kept only if it has
			// a new bit: a conditional move, not a branch on random data.
			found = found[:n]
			j := 0
			for w, x := range next {
				nw := x &^ seen[w]
				next[w] = nw
				seen[w] |= nw
				found[j] = int32(w)
				if nw != 0 {
					j++
				}
			}
			found = found[:j]
		}
		// Level d is complete, next holds each found node's new bits: credit
		// the node to the sources that found it. A node below maxTTL forwards
		// to all neighbors but its sender, and those messages arrive by d+1.
		// One word per source carries both sums, nodes found in the high half
		// and Σ(deg−1) in the low: each is below 2³¹ because Frozen's arc
		// offsets are int32, so the low half cannot carry into the high.
		var acc [MaxBatch]uint64
		for _, w := range found {
			nw := next[w]
			next[w] = 0
			visit[w] = nw
			c := 1<<32 | uint64(f.Degree(int(w))-1)
			for ; nw != 0; nw &= nw - 1 {
				acc[bits.TrailingZeros64(nw)] += c
			}
		}
		for i := 0; i < k; i++ {
			hits[i*L+d] = int(acc[i] >> 32)
			if d < maxTTL {
				msgs[i*L+d+1] = int(uint32(acc[i]))
			}
		}
		active, found = found, active[:0]
	}
	s.cur, s.next = active, found

	res := b.results[:k]
	for i := range res {
		h, m := hits[i*L:(i+1)*L:(i+1)*L], msgs[i*L:(i+1)*L:(i+1)*L]
		for t := 1; t <= maxTTL; t++ {
			h[t] += h[t-1]
			m[t] += m[t-1]
		}
		res[i] = Result{Hits: h, Messages: m}
	}
	return res, nil
}
