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
}

// FloodBatch floods from up to MaxBatch sources at once and returns, for
// source i, exactly the Hits and Messages series Flood(f, srcs[i], maxTTL)
// returns — equal sources, isolated sources, exhausted components and
// maxTTL == 0 included — or the validation error of the first offending
// source. The Results alias s like every other Scratch result.
//
// It is the bit-parallel multi-source BFS: a figure reads only the per-TTL
// counts of each source, never the discovery order, so one adjacency scan
// of a frontier node v can serve every source whose frontier contains v
// (`visit[v] &^ seen[w]` is the set of sources that reach w through v for
// the first time). The cost of a level is the number of distinct frontier
// nodes across all sources, not the sum of the frontiers. Kernels that
// need discovery order or a target depth (hybrid, ring) keep using the
// queue kernel, which also stays faster for a single source.
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

	// Row i of hits/msgs collects per-level increments and is prefix-summed
	// at the end, which also carries an exhausted source's totals forward to
	// maxTTL exactly as floodLevels' tail fill does.
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

	for d := 1; d <= maxTTL && len(active) > 0; d++ {
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
		// Level d is complete: credit each node found to the sources that
		// found it. A node below maxTTL forwards to all neighbors but its
		// sender, and those messages arrive by d+1.
		var dh, dm [MaxBatch]int
		for _, w := range found {
			nw := next[w]
			next[w] = 0
			visit[w] = nw
			fwd := f.Degree(int(w)) - 1
			for ; nw != 0; nw &= nw - 1 {
				i := bits.TrailingZeros64(nw)
				dh[i]++
				dm[i] += fwd
			}
		}
		for i := 0; i < k; i++ {
			hits[i*L+d] = dh[i]
			if d < maxTTL {
				msgs[i*L+d+1] = dm[i]
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
