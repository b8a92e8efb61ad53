package search

import (
	"fmt"

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

// spread[x] holds bit j of x in byte j: one byte lane per source of an
// 8-source slice of a batch word.
var spread = func() (t [256]uint64) {
	for x := range t {
		for j := 0; j < 8; j++ {
			t[x] |= uint64(x>>j&1) << (8 * j)
		}
	}
	return t
}()

// laneFlush is how many found nodes the byte lanes take before they are
// flushed: each node adds at most 1 to a byte, and a byte holds 255.
const laneFlush = 255

// FloodBatch floods from up to MaxBatch sources at once and returns, for
// source i, exactly the Hits series Flood(f, srcs[i], maxTTL) returns —
// equal sources, isolated sources, exhausted components and maxTTL == 0
// included — or the validation error of the first offending source. It is
// a hits kernel: Messages is nil in every Result, since the FL figures read
// hits only. The Results alias s like every other Scratch result.
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
// below depends on the order. Each level's hits are a positional popcount
// of the found nodes' new words, counted eight sources per add in byte
// lanes. Kernels that need discovery order, messages or a target depth keep
// using the queue kernel.
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

	// Row i of hits collects per-level increments and is prefix-summed at
	// the end, which also carries an exhausted source's total forward to
	// maxTTL exactly as the single-source sweep's tail fill does.
	L := maxTTL + 1
	hits := s.intBuf(k * L)
	active, found := s.cur[:0], s.next[:0]
	for i, src := range srcs {
		bit := uint64(1) << uint(i)
		if visit[src] == 0 {
			active = append(active, int32(src))
		}
		visit[src] |= bit
		seen[src] |= bit
		hits[i*L] = 1
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
		// Level d is complete, next holds each found node's new bits: count
		// the node for the sources that found it. Byte q of the new word
		// adds spread[byte] to lane q, whose byte j then counts source
		// 8q+j's nodes of this chunk.
		row := hits[d:]
		for lo := 0; lo < len(found); lo += laneFlush {
			var l0, l1, l2, l3, l4, l5, l6, l7 uint64
			for _, w := range found[lo:min(lo+laneFlush, len(found))] {
				nw := next[w]
				next[w] = 0
				visit[w] = nw
				l0 += spread[uint8(nw)]
				l1 += spread[uint8(nw>>8)]
				l2 += spread[uint8(nw>>16)]
				l3 += spread[uint8(nw>>24)]
				l4 += spread[uint8(nw>>32)]
				l5 += spread[uint8(nw>>40)]
				l6 += spread[uint8(nw>>48)]
				l7 += spread[uint8(nw>>56)]
			}
			for q, lane := range [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7} {
				for i := 8 * q; i < min(8*q+8, k); i++ {
					row[i*L] += int(uint8(lane >> (8 * (i - 8*q))))
				}
			}
		}
		active, found = found, active[:0]
	}
	s.cur, s.next = active, found

	res := b.results[:k]
	for i := range res {
		h := hits[i*L : (i+1)*L : (i+1)*L]
		for t := 1; t <= maxTTL; t++ {
			h[t] += h[t-1]
		}
		res[i] = Result{Hits: h}
	}
	return res, nil
}
