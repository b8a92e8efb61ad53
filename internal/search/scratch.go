package search

// Scratch is the allocation-free engine behind every search kernel. The
// paper-scale experiment harness runs millions of Flood/NF/RW calls on a
// handful of topologies; allocating O(N) visited and frontier buffers per
// call made the garbage collector the dominant cost. A Scratch owns those
// buffers — an epoch-stamped visited array (cleared in O(1) by bumping the
// epoch instead of rewriting N entries), the two-queue BFS frontier, the
// NF candidate buffer, and a small arena of per-TTL result series — so
// repeated searches on one topology allocate nothing after the first call.
//
// Every flooding kernel (FL, NF and its load profile, PF, FloodDelivery,
// the hybrid's flood phase) is one loop, sweep, over a two-queue frontier:
// `cur` holds the nodes of the depth being processed and `next` collects
// the depth below, swapped at each level boundary. The depth of a node is
// the loop counter, so no per-node depth array exists at all, and the node
// that first delivered the query sits in the epoch-stamped val array, so no
// queue runs parallel to the frontier either. The kernels differ only in
// the forwarding rule they hand the sweep.
//
// Every kernel reads the topology through *graph.Frozen, the CSR snapshot:
// flat offsets/neighbors arrays instead of a slice of slices, so the hot
// loops are two array indexings per hop with no pointer chase and no
// bounds-checked Graph method calls. Freeze once per generated topology
// (the sim engine does this right after generation, letting the mutable
// Graph be collected) and run any number of searches.
//
// Usage: one Scratch per goroutine (it is not safe for concurrent use),
// reused across any number of searches and graph sizes (buffers grow on
// demand and are retained). Results returned by Scratch methods alias the
// scratch's internal buffers: they are valid until the next call on the
// same Scratch, so consume (or copy) them before searching again.
//
// The zero value is ready to use.

import (
	"math"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// Scratch holds reusable search state. See the package comment above for
// the ownership and aliasing rules. A Scratch must not be copied after
// first use: copies share the same backing arrays, so two copies searching
// concurrently race on the visited marks. Pass *Scratch, and derive new
// scratches with NewScratch (or the zero value), never by value-copying
// a used one.
type Scratch struct {
	// epoch stamps the current search; mark[v] == epoch means v was
	// visited by it. Bumping epoch invalidates every stamp at once.
	epoch int32
	mark  []int32
	// val[v] is a per-node value tied to a mark stamp (the sweep stores the
	// node that first delivered the query, walker kernels the earliest step
	// a node was seen); valid only while mark[v] carries the epoch that
	// wrote it.
	val []int32
	// cur and next are the two-queue BFS frontier: the depth being
	// processed and the depth being discovered.
	cur, next []int32
	// cand is the forward-set buffer of the NF and PF rules (neighbors
	// minus the sender, then sampled) and the hybrid's walk starts.
	cand []int32
	// bufs is a small arena of per-TTL series reused across calls; nbuf
	// is the number handed out since the last reset.
	bufs [][]int
	nbuf int
	// batch is FloodBatch's per-node bit state, allocated on first use so
	// scratches that never batch do not carry it.
	batch *batchState
}

// NewScratch returns a Scratch pre-sized for n-node graphs. n may be 0;
// buffers grow on first use either way.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.ensure(n)
	return s
}

// reset starts a fresh top-level search: previously returned Results are
// invalidated and their buffers recycled.
func (s *Scratch) reset() { s.nbuf = 0 }

// ensure grows the per-node arrays to cover n nodes.
func (s *Scratch) ensure(n int) {
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.val = make([]int32, n)
		s.epoch = 0 // fresh zeroed marks: restart the epoch counter
	}
}

// newEpoch invalidates all visited marks in O(1).
func (s *Scratch) newEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// reserveEpochs guarantees the next n newEpoch calls will not wrap, so a
// kernel can hold several live epochs at once (hybrid search keeps the
// flood's coverage stamp while the walkers stamp first-seen steps).
func (s *Scratch) reserveEpochs(n int32) {
	if s.epoch > math.MaxInt32-n {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 0
	}
}

// intBuf hands out a zeroed length-n series from the arena.
func (s *Scratch) intBuf(n int) []int {
	if s.nbuf == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	b := s.bufs[s.nbuf]
	if cap(b) < n {
		b = make([]int, n)
		s.bufs[s.nbuf] = b
	} else {
		b = b[:n]
		for i := range b {
			b[i] = 0
		}
	}
	s.nbuf++
	return b
}

// Flood runs flooding search from src up to maxTTL hops (§V-A1). It is a
// breadth-first sweep with duplicate suppression: a node forwards the query
// on first receipt only, to every neighbor except the one that delivered
// it. The source forwards to all its neighbors.
//
// Hits[t] is the size of the t-hop ball around src; on a connected graph it
// approaches N as t grows (Figs. 6–8), while on CM with m=1 it saturates at
// the source's component size (§V-B1). The Result aliases s.
func (s *Scratch) Flood(f *graph.Frozen, src, maxTTL int) (Result, error) {
	if err := validate(f, src, maxTTL); err != nil {
		return Result{}, err
	}
	s.reset()
	res := s.newResult(f, maxTTL)
	s.sweep(f, src, maxTTL, res, func(u, _ int32, d int) ([]int32, int) { return floodRow(f, u, d) })
	return res, nil
}

// floodRow is FL's forwarding rule: node u at depth d forwards to its whole
// row and is charged deg, or deg−1 off the source — the reverse
// transmission to the sender is not sent. Duplicate suppression never
// re-enqueues the sender, so the row needs no filtering; on a multigraph
// the charge still excludes one copy only, which is not the same as
// dropping every parallel link to the sender.
func floodRow(f *graph.Frozen, u int32, d int) ([]int32, int) {
	row := f.Neighbors(int(u))
	if d > 0 && len(row) > 0 {
		return row, len(row) - 1
	}
	return row, len(row)
}

// newResult sizes s for f and hands out a zeroed maxTTL-deep Result.
func (s *Scratch) newResult(f *graph.Frozen, maxTTL int) Result {
	s.ensure(f.N())
	return Result{Hits: s.intBuf(maxTTL + 1), Messages: s.intBuf(maxTTL + 1)}
}

// sweep is the one flooding loop: a duplicate-suppressed breadth-first sweep
// of the maxTTL-hop ball around src, in which every node reached below
// maxTTL forwards, on first receipt, to the neighbors fwd names. fwd(u,
// sender, d) returns node u's targets in order and the messages they cost;
// sender is the node that first delivered the query to u (-1 at the
// source) and d is u's depth. FL, NF (with or without a load profile) and
// PF differ only in that rule.
//
// sweep fills res with cumulative per-TTL hits and messages and returns the
// final frontier — the nodes at depth exactly maxTTL, in discovery order;
// empty when the sweep exhausted its component first. The frontier aliases
// s's queues and the reached set is Reached's, both until the next search
// on s.
func (s *Scratch) sweep(f *graph.Frozen, src, maxTTL int, res Result, fwd func(u, sender int32, d int) ([]int32, int)) []int32 {
	ep := s.newEpoch()
	s.mark[src] = ep
	s.val[src] = -1
	cur := append(s.cur[:0], int32(src))
	next := s.next[:0]
	hits, msgs := 0, 0
	d := 0
	for len(cur) > 0 {
		hits += len(cur)
		res.Hits[d] = hits
		if d == maxTTL {
			break
		}
		for _, u := range cur {
			targets, m := fwd(u, s.val[u], d)
			msgs += m
			for _, w := range targets {
				if s.mark[w] != ep {
					s.mark[w] = ep
					s.val[w] = u
					next = append(next, w)
				}
			}
		}
		// Messages sent by depth <= d arrive by d+1.
		res.Messages[d+1] = msgs
		cur, next = next, cur[:0]
		d++
	}
	// The sweep exhausted its component (or reached maxTTL): later TTLs
	// see the same cumulative totals.
	for t := d; t <= maxTTL; t++ {
		res.Hits[t] = hits
		if t < maxTTL {
			res.Messages[t+1] = msgs
		}
	}
	s.cur, s.next = cur, next
	return cur
}

// Reached reports whether node v was reached by the last flood on s
// (Flood, NormalizedFlood, ProbabilisticFlood or FloodDelivery). Like a
// Result, it holds until the next search on s.
func (s *Scratch) Reached(v int) bool {
	return v >= 0 && v < len(s.mark) && s.mark[v] == s.epoch
}

// nfTargets is NF's forwarding rule: node u forwards to all neighbors
// except the sender, down-sampled to kMin uniformly chosen entries
// (partial Fisher–Yates) when larger. The returned slice reuses s.cand and
// is valid until the next call.
func (s *Scratch) nfTargets(f *graph.Frozen, u, sender int32, kMin int, rng *xrand.RNG) []int32 {
	cand := s.cand[:0]
	for _, w := range f.Neighbors(int(u)) {
		if w != sender {
			cand = append(cand, w)
		}
	}
	s.cand = cand
	if len(cand) <= kMin {
		return cand
	}
	for i := 0; i < kMin; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return cand[:kMin]
}

// NormalizedFlood runs NF search from src (§V-A2). kMin is the network's
// minimum degree parameter: a node whose degree (excluding the reverse
// link) exceeds kMin forwards to kMin uniformly chosen neighbors other than
// the sender; a node at or below kMin forwards to all neighbors except the
// sender. The source forwards to min(kMin, deg) random neighbors.
//
// NF is randomized: the paper averages hits over many sources and
// realizations (internal/sim does the averaging). The Result aliases s.
func (s *Scratch) NormalizedFlood(f *graph.Frozen, src, maxTTL, kMin int, rng *xrand.RNG) (Result, error) {
	s.reset()
	return s.normalizedFlood(f, src, maxTTL, kMin, rng, nil)
}

// NormalizedFloodLoad runs NF from src exactly as NormalizedFlood does,
// charging each transmission to its sender and each receipt (duplicate or
// not) to its receiver.
func (s *Scratch) NormalizedFloodLoad(f *graph.Frozen, src, maxTTL, kMin int, rng *xrand.RNG, load *Load) error {
	s.reset()
	_, err := s.normalizedFlood(f, src, maxTTL, kMin, rng, load)
	return err
}

// normalizedFlood is NF, charging each transmission to load when it is
// non-nil.
func (s *Scratch) normalizedFlood(f *graph.Frozen, src, maxTTL, kMin int, rng *xrand.RNG, load *Load) (Result, error) {
	if err := validate(f, src, maxTTL); err != nil {
		return Result{}, err
	}
	if kMin < 1 {
		return Result{}, errBadKMin(kMin)
	}
	if load != nil {
		if err := load.check(f); err != nil {
			return Result{}, err
		}
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	res := s.newResult(f, maxTTL)
	s.sweep(f, src, maxTTL, res, func(u, sender int32, _ int) ([]int32, int) {
		targets := s.nfTargets(f, u, sender, kMin, rng)
		if load != nil {
			load.Forwards[u] += int64(len(targets))
			for _, w := range targets {
				load.Receipts[w]++
			}
		}
		return targets, len(targets)
	})
	return res, nil
}

// RandomWalk runs a random walk of exactly `steps` hops from src (§V-A3).
// At each hop the query moves to a uniformly random neighbor excluding the
// node it just came from; if the walker is at a dead end (its only
// neighbor is the previous node) it backtracks rather than dying, the
// standard convention for non-backtracking walks on trees. Hits[t] counts
// distinct nodes seen within the first t steps; Messages[t] == t. The
// Result aliases s.
func (s *Scratch) RandomWalk(f *graph.Frozen, src, steps int, rng *xrand.RNG) (Result, error) {
	s.reset()
	return s.randomWalk(f, src, steps, rng)
}

func (s *Scratch) randomWalk(f *graph.Frozen, src, steps int, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, steps); err != nil {
		return Result{}, err
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	res := s.newResult(f, steps)
	ep := s.newEpoch()
	s.mark[src] = ep
	hits := 1
	res.Hits[0] = 1
	cur, prev := src, -1
	for step := 1; step <= steps; step++ {
		next, ok := Step(f, cur, prev, rng)
		if !ok {
			// Stuck on an isolated node: the walk cannot move.
			res.Hits[step] = hits
			res.Messages[step] = res.Messages[step-1]
			continue
		}
		prev, cur = cur, next
		if s.mark[cur] != ep {
			s.mark[cur] = ep
			hits++
		}
		res.Hits[step] = hits
		res.Messages[step] = step
	}
	return res, nil
}

// RandomWalkWithNFBudget reproduces the paper's RW normalization (§V-B):
// for each τ in 1..maxTTL, the RW "data point corresponding to that τ
// value is obtained by simulating a RW search with τ equal to the number
// of messages that were caused by an NF search using" the same τ. It runs
// one NF search to obtain the per-τ message budget, then a single long
// walk, reading hits at each budget point. Returns the RW result (indexed
// by NF-τ) and the NF result that defined the budget; both alias s.
func (s *Scratch) RandomWalkWithNFBudget(f *graph.Frozen, src, maxTTL, kMin int, rng *xrand.RNG) (rw, nf Result, err error) {
	s.reset()
	nf, err = s.normalizedFlood(f, src, maxTTL, kMin, rng, nil)
	if err != nil {
		return Result{}, Result{}, err
	}
	budget := nf.Messages[maxTTL]
	walk, err := s.randomWalk(f, src, budget, rng)
	if err != nil {
		return Result{}, Result{}, err
	}
	rw = s.newResult(f, maxTTL)
	for t := 0; t <= maxTTL; t++ {
		b := nf.Messages[t]
		rw.Hits[t] = walk.HitsAt(b)
		rw.Messages[t] = b
	}
	return rw, nf, nil
}
