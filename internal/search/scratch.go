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
// The BFS kernels use a structure-of-arrays two-queue frontier: `cur`
// holds the nodes of the depth being processed and `next` collects the
// depth below, swapped at each level boundary. The depth of a node is the
// loop counter, so no per-node depth array exists at all — one less O(N)
// store per discovery and one less array to cache-miss on.
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
	// val[v] is a per-node value tied to a mark stamp (walker kernels
	// store the earliest step a node was seen); valid only while mark[v]
	// carries the epoch that wrote it.
	val []int32
	// cur and next are the two-queue BFS frontier: the depth being
	// processed and the depth being discovered.
	cur, next []int32
	// fromCur and fromNext run parallel to cur/next for kernels that need
	// the forwarding sender (NF, the load variants, PF).
	fromCur, fromNext []int32
	// cand is the NF candidate buffer (neighbors minus the sender).
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
	s.reset()
	return s.flood(f, src, maxTTL)
}

func (s *Scratch) flood(f *graph.Frozen, src, maxTTL int) (Result, error) {
	if err := validate(f, src, maxTTL); err != nil {
		return Result{}, err
	}
	s.ensure(f.N())
	res := Result{
		Hits:     s.intBuf(maxTTL + 1),
		Messages: s.intBuf(maxTTL + 1),
	}
	s.floodLevels(f, src, maxTTL, res, -1)
	return res, nil
}

// floodLevels is the two-queue flooding core: it fills res and returns the
// final frontier — the nodes at depth exactly maxTTL, in discovery order —
// plus the depth at which `target` was discovered (-1 when target is -1 or
// unreached). The frontier aliases s's queues and is valid until the next
// search on s.
func (s *Scratch) floodLevels(f *graph.Frozen, src, maxTTL int, res Result, target int32) (frontier []int32, foundDepth int) {
	ep := s.newEpoch()
	s.mark[src] = ep
	cur := append(s.cur[:0], int32(src))
	next := s.next[:0]
	foundDepth = -1
	if target == int32(src) {
		foundDepth = 0
	}
	hits, msgs := 0, 0
	d := 0
	for len(cur) > 0 {
		for _, u := range cur {
			hits++
			if d == maxTTL {
				continue
			}
			// Forward to all neighbors except the sender. With duplicate
			// suppression the sender is never re-enqueued anyway; the
			// message count excludes the reverse transmission per the
			// protocol.
			deg := f.Degree(int(u))
			if d == 0 {
				msgs += deg
			} else if deg > 0 {
				msgs += deg - 1
			}
			for _, w := range f.Neighbors(int(u)) {
				if s.mark[w] != ep {
					s.mark[w] = ep
					if w == target {
						foundDepth = d + 1
					}
					next = append(next, w)
				}
			}
		}
		// Level complete: record cumulative values. Messages sent by
		// depth <= d arrive by d+1.
		res.Hits[d] = hits
		if d+1 <= maxTTL {
			res.Messages[d+1] = msgs
		}
		if d == maxTTL {
			break
		}
		cur, next = next, cur[:0]
		d++
	}
	// The sweep exhausted its component (or reached maxTTL): later TTLs
	// see the same cumulative totals.
	for t := d; t <= maxTTL; t++ {
		res.Hits[t] = hits
		if t+1 <= maxTTL {
			res.Messages[t+1] = msgs
		}
	}
	res.Messages[0] = 0
	s.cur, s.next = cur, next
	if d == maxTTL && len(cur) > 0 {
		return cur, foundDepth
	}
	return nil, foundDepth
}

// nfTargets builds node u's NF forward set: all neighbors except the
// sender, down-sampled to kMin uniformly chosen entries (partial
// Fisher–Yates) when larger. Shared by the search and load-profile NF
// kernels so their RNG consumption can never diverge. The returned slice
// reuses s.cand and is valid until the next call.
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
	return s.normalizedFlood(f, src, maxTTL, kMin, rng)
}

func (s *Scratch) normalizedFlood(f *graph.Frozen, src, maxTTL, kMin int, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, maxTTL); err != nil {
		return Result{}, err
	}
	if kMin < 1 {
		return Result{}, errBadKMin(kMin)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.ensure(f.N())
	ep := s.newEpoch()
	res := Result{
		Hits:     s.intBuf(maxTTL + 1),
		Messages: s.intBuf(maxTTL + 1),
	}
	s.mark[src] = ep
	cur := append(s.cur[:0], int32(src))
	fromCur := append(s.fromCur[:0], -1)
	next, fromNext := s.next[:0], s.fromNext[:0]
	hits, msgs := 0, 0
	d := 0
	for len(cur) > 0 {
		for i, u := range cur {
			sender := fromCur[i]
			hits++
			if d == maxTTL {
				continue
			}
			targets := s.nfTargets(f, u, sender, kMin, rng)
			msgs += len(targets)
			for _, w := range targets {
				if s.mark[w] != ep {
					s.mark[w] = ep
					next = append(next, w)
					fromNext = append(fromNext, u)
				}
			}
		}
		res.Hits[d] = hits
		if d+1 <= maxTTL {
			res.Messages[d+1] = msgs
		}
		if d == maxTTL {
			break
		}
		cur, next = next, cur[:0]
		fromCur, fromNext = fromNext, fromCur[:0]
		d++
	}
	for t := d; t <= maxTTL; t++ {
		res.Hits[t] = hits
		if t+1 <= maxTTL {
			res.Messages[t+1] = msgs
		}
	}
	res.Messages[0] = 0
	s.cur, s.next, s.fromCur, s.fromNext = cur, next, fromCur, fromNext
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
	s.ensure(f.N())
	ep := s.newEpoch()
	res := Result{
		Hits:     s.intBuf(steps + 1),
		Messages: s.intBuf(steps + 1),
	}
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
	nf, err = s.normalizedFlood(f, src, maxTTL, kMin, rng)
	if err != nil {
		return Result{}, Result{}, err
	}
	budget := nf.Messages[maxTTL]
	walk, err := s.randomWalk(f, src, budget, rng)
	if err != nil {
		return Result{}, Result{}, err
	}
	rw = Result{
		Hits:     s.intBuf(maxTTL + 1),
		Messages: s.intBuf(maxTTL + 1),
	}
	for t := 0; t <= maxTTL; t++ {
		b := nf.Messages[t]
		rw.Hits[t] = walk.HitsAt(b)
		rw.Messages[t] = b
	}
	return rw, nf, nil
}

// FloodVisit sweeps the maxTTL-hop ball around src in breadth-first order
// with duplicate suppression, calling visit(node, depth) once per
// discovered node; visit returning false stops the sweep early. It is the
// allocation-free bounded BFS the content layer's flooding query resolver
// runs on.
func (s *Scratch) FloodVisit(f *graph.Frozen, src, maxTTL int, visit func(node, depth int) bool) error {
	if err := validate(f, src, maxTTL); err != nil {
		return err
	}
	s.reset()
	s.ensure(f.N())
	ep := s.newEpoch()
	s.mark[src] = ep
	cur := append(s.cur[:0], int32(src))
	next := s.next[:0]
	d := 0
sweep:
	for len(cur) > 0 {
		for _, u := range cur {
			if !visit(int(u), d) {
				break sweep
			}
			if d == maxTTL {
				continue
			}
			for _, w := range f.Neighbors(int(u)) {
				if s.mark[w] != ep {
					s.mark[w] = ep
					next = append(next, w)
				}
			}
		}
		if d == maxTTL {
			break
		}
		cur, next = next, cur[:0]
		d++
	}
	s.cur, s.next = cur, next
	return nil
}

// NormalizedFloodLoad runs NF from src exactly as NormalizedFlood does,
// charging each transmission to its sender and each receipt (duplicate or
// not) to its receiver.
func (s *Scratch) NormalizedFloodLoad(f *graph.Frozen, src, maxTTL, kMin int, rng *xrand.RNG, load *Load) error {
	if err := validate(f, src, maxTTL); err != nil {
		return err
	}
	if kMin < 1 {
		return errBadKMin(kMin)
	}
	if err := load.check(f); err != nil {
		return err
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
	s.ensure(f.N())
	ep := s.newEpoch()
	s.mark[src] = ep
	cur := append(s.cur[:0], int32(src))
	fromCur := append(s.fromCur[:0], -1)
	next, fromNext := s.next[:0], s.fromNext[:0]
	d := 0
	for len(cur) > 0 {
		for i, u := range cur {
			sender := fromCur[i]
			if d == maxTTL {
				continue
			}
			for _, w := range s.nfTargets(f, u, sender, kMin, rng) {
				load.Forwards[u]++
				load.Receipts[w]++
				if s.mark[w] != ep {
					s.mark[w] = ep
					next = append(next, w)
					fromNext = append(fromNext, u)
				}
			}
		}
		if d == maxTTL {
			break
		}
		cur, next = next, cur[:0]
		fromCur, fromNext = fromNext, fromCur[:0]
		d++
	}
	s.cur, s.next, s.fromCur, s.fromNext = cur, next, fromCur, fromNext
	return nil
}
