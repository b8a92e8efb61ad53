package search

// Baseline search strategies from the paper's related work (§II, §V-A),
// plus the multiple-walker extension and flooding's delivery time:
//
//   - HighDegreeWalk: the degree-seeking walk of Adamic, Lukose, Puniyani &
//     Huberman, "Search in power-law networks" (paper ref [62], the source
//     of Eq. 7). The walker always moves to its highest-degree unvisited
//     neighbor, exploiting hubs to cover power-law networks far faster than
//     a blind walk — and losing exactly that advantage when a hard cutoff
//     removes the hubs, which is the tradeoff this repository measures.
//   - ProbabilisticFlood: flooding where interior nodes forward each copy
//     independently with probability p (paper ref [29], "probabilistic
//     flooding techniques"). p=1 is exactly Flood; p<1 trades coverage for
//     messages.
//   - HybridSearch: the flood-then-walk hybrid of Gkantsidis, Mihail &
//     Saberi (paper ref [30], the same paper that introduced NF): a short
//     flood of depth floodTTL seeds the frontier, then k random walkers
//     continue from frontier nodes.
//   - KRandomWalks: the paper's "multiple RWs" (§V-B1).
//
// All report Result in the same Hits/Messages form as FL/NF/RW so
// internal/sim can sweep them with the same harness, and all read the
// topology through the CSR *graph.Frozen. Each is bit-for-bit identical to
// its straightforward reference implementation — same traversal order,
// same RNG consumption, same Hits and Messages — which the reference
// equivalence tests pin. As Scratch methods they reuse buffers, so the
// strategies experiment in internal/sim is allocation-free end to end.

import (
	"fmt"
	"slices"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// ErrBadProb reports a forwarding probability outside [0,1].
var ErrBadProb = fmt.Errorf("search: forwarding probability must be in [0,1]")

// KRandomWalks runs `walkers` independent non-backtracking random walks
// from src, each taking `steps` hops. Hits[t] counts distinct nodes seen
// by any walker within its first t steps; Messages[t] = walkers·t. One
// k-walker search with k·steps total messages is the paper's "multiple
// RWs" alternative to a single long walk. The Result aliases s.
func (s *Scratch) KRandomWalks(f *graph.Frozen, src, walkers, steps int, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, steps); err != nil {
		return Result{}, err
	}
	if walkers < 1 {
		return Result{}, fmt.Errorf("search: walkers %d must be >= 1", walkers)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
	s.ensure(f.N())
	ep := s.newEpoch()
	res := Result{
		Hits:     s.intBuf(steps + 1),
		Messages: s.intBuf(steps + 1),
	}
	// val[v] is the earliest per-walker step at which v was reached; seen
	// lists the stamped nodes so the histogram never scans the whole graph.
	seen := s.cur[:0]
	s.mark[src] = ep
	s.val[src] = 0
	seen = append(seen, int32(src))
	for w := 0; w < walkers; w++ {
		cur, prev := src, -1
		for t := 1; t <= steps; t++ {
			next, ok := Step(f, cur, prev, rng)
			if !ok {
				break // isolated source
			}
			prev, cur = cur, next
			if s.mark[cur] != ep {
				s.mark[cur] = ep
				s.val[cur] = int32(t)
				seen = append(seen, int32(cur))
			} else if int32(t) < s.val[cur] {
				s.val[cur] = int32(t)
			}
		}
	}
	for _, v := range seen {
		res.Hits[s.val[v]]++
	}
	for t := 1; t <= steps; t++ {
		res.Hits[t] += res.Hits[t-1]
		res.Messages[t] = walkers * t
	}
	s.cur = seen
	return res, nil
}

// HighDegreeWalk runs the Adamic et al. degree-seeking walk for exactly
// `steps` hops. At each hop the walker moves to the highest-degree neighbor
// it has not yet visited (ties broken uniformly at random); when every
// neighbor has been visited it falls back to a uniformly random neighbor
// excluding the one it just came from, as in RandomWalk. Hits[t] counts
// distinct nodes seen within the first t steps; Messages[t] == t. The
// Result aliases s.
func (s *Scratch) HighDegreeWalk(f *graph.Frozen, src, steps int, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, steps); err != nil {
		return Result{}, err
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
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
	for t := 1; t <= steps; t++ {
		next := s.bestUnvisitedNeighbor(f, cur, ep, rng)
		if next < 0 {
			var ok bool
			next, ok = Step(f, cur, prev, rng)
			if !ok {
				// Stuck on an isolated node.
				res.Hits[t] = hits
				res.Messages[t] = res.Messages[t-1]
				continue
			}
		}
		prev, cur = cur, next
		if s.mark[cur] != ep {
			s.mark[cur] = ep
			hits++
		}
		res.Hits[t] = hits
		res.Messages[t] = t
	}
	return res, nil
}

// bestUnvisitedNeighbor returns the highest-degree neighbor of u whose mark
// is not ep, breaking ties uniformly at random by reservoir sampling, or -1
// when every neighbor is visited (or u has none).
func (s *Scratch) bestUnvisitedNeighbor(f *graph.Frozen, u int, ep int32, rng *xrand.RNG) int {
	best, bestDeg, ties := -1, -1, 0
	for _, v := range f.Neighbors(u) {
		if s.mark[v] == ep {
			continue
		}
		d := f.Degree(int(v))
		switch {
		case d > bestDeg:
			best, bestDeg, ties = int(v), d, 1
		case d == bestDeg:
			ties++
			if rng.Intn(ties) == 0 {
				best = int(v)
			}
		}
	}
	return best
}

// ProbabilisticFlood runs flooding in which the source forwards to all its
// neighbors and every interior node, on first receipt, forwards to each
// neighbor other than the sender independently with probability p. With
// p=1 the result is identical to Flood. Duplicate receipts are suppressed
// exactly as in Flood. The Result aliases s.
func (s *Scratch) ProbabilisticFlood(f *graph.Frozen, src, maxTTL int, p float64, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, maxTTL); err != nil {
		return Result{}, err
	}
	if p < 0 || p > 1 {
		return Result{}, fmt.Errorf("%w: %v", ErrBadProb, p)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
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
			for _, v := range f.Neighbors(int(u)) {
				if v == sender {
					continue
				}
				if d > 0 && !rng.Bool(p) {
					continue // interior node dropped this copy
				}
				msgs++
				if s.mark[v] != ep {
					s.mark[v] = ep
					next = append(next, v)
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

// HybridSearch runs the GMS flood-then-walk hybrid: a flood of depth
// floodTTL from src, then `walkers` independent non-backtracking random
// walks of `steps` hops each, started from uniformly chosen nodes of the
// flood's outermost frontier (falling back to the whole covered ball when
// the frontier is empty).
//
// Hits is indexed by a combined time axis of length floodTTL+steps+1:
// Hits[0..floodTTL] is the flood phase and Hits[floodTTL+s] adds the
// distinct nodes the walkers reached within their first s steps.
// Messages follows the same axis (flood transmissions, then walkers·s).
// The Result aliases s.
func (s *Scratch) HybridSearch(f *graph.Frozen, src, floodTTL, walkers, steps int, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, floodTTL); err != nil {
		return Result{}, err
	}
	if walkers < 1 {
		return Result{}, fmt.Errorf("search: walkers %d must be >= 1", walkers)
	}
	if steps < 0 {
		return Result{}, fmt.Errorf("%w: %d walk steps", ErrBadTTL, steps)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
	s.ensure(f.N())
	// Two live epochs: ep stamps the flood's coverage, ep2 the walkers'
	// first-seen set. Reserving both up front keeps ep valid across the
	// wrap check inside the second newEpoch.
	s.reserveEpochs(2)

	total := floodTTL + steps
	res := Result{
		Hits:     s.intBuf(total + 1),
		Messages: s.intBuf(total + 1),
	}
	flood := Result{
		Hits:     s.intBuf(floodTTL + 1),
		Messages: s.intBuf(floodTTL + 1),
	}
	frontier, _ := s.floodLevels(f, src, floodTTL, flood, -1)
	ep := s.epoch
	copy(res.Hits, flood.Hits)
	copy(res.Messages, flood.Messages)

	// Walk starts: the flood's outermost frontier in ascending node order
	// (matching the reference implementation, which scans BFS depths by
	// node ID), falling back to the whole covered ball when the frontier is
	// empty.
	starts := append(s.cand[:0], frontier...)
	slices.Sort(starts)
	if len(starts) == 0 {
		for v, n := 0, f.N(); v < n; v++ {
			if s.mark[v] == ep {
				starts = append(starts, int32(v))
			}
		}
	}
	s.cand = starts

	// val[v] is the earliest per-walker step at which any walker reached an
	// uncovered node v (stamped ep2); seen lists the stamped nodes.
	ep2 := s.newEpoch()
	seen := s.fromCur[:0]
	for w := 0; w < walkers; w++ {
		cur, prev := int(starts[rng.Intn(len(starts))]), -1
		for t := 1; t <= steps; t++ {
			next, ok := Step(f, cur, prev, rng)
			if !ok {
				break
			}
			prev, cur = cur, next
			if s.mark[cur] == ep {
				continue // covered by the flood phase
			}
			if s.mark[cur] != ep2 {
				s.mark[cur] = ep2
				s.val[cur] = int32(t)
				seen = append(seen, int32(cur))
			} else if int32(t) < s.val[cur] {
				s.val[cur] = int32(t)
			}
		}
	}
	s.fromCur = seen
	newHits := s.intBuf(steps + 1)
	for _, v := range seen {
		newHits[s.val[v]]++
	}
	base := flood.HitsAt(floodTTL)
	baseMsgs := flood.MessagesAt(floodTTL)
	cum := 0
	for t := 1; t <= steps; t++ {
		cum += newHits[t]
		res.Hits[floodTTL+t] = base + cum
		res.Messages[floodTTL+t] = baseMsgs + walkers*t
	}
	res.Hits[floodTTL] = base
	return res, nil
}

// FloodDelivery measures flooding's delivery time to a specific target:
// the number of intermediate links traversed, i.e. the shortest-path
// length (paper §V-A1, Eq. 6), along with the messages flooded until the
// target's BFS depth completed. The whole measurement is one bounded
// two-queue sweep, with no separate BFS pass and no per-call distance
// array.
func (s *Scratch) FloodDelivery(f *graph.Frozen, src, target, maxTTL int) (Delivery, error) {
	if err := validate(f, src, maxTTL); err != nil {
		return Delivery{}, err
	}
	if target < 0 || target >= f.N() {
		return Delivery{}, fmt.Errorf("%w: target %d", ErrBadSource, target)
	}
	if target == src {
		return Delivery{Found: true}, nil
	}
	s.reset()
	s.ensure(f.N())
	res := Result{
		Hits:     s.intBuf(maxTTL + 1),
		Messages: s.intBuf(maxTTL + 1),
	}
	_, d := s.floodLevels(f, src, maxTTL, res, int32(target))
	if d < 0 {
		return Delivery{Found: false, Time: maxTTL, Messages: res.MessagesAt(maxTTL)}, nil
	}
	return Delivery{Found: true, Time: d, Messages: res.MessagesAt(d)}, nil
}
