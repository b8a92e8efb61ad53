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
// by any walker within its first t steps; Messages[t] = walkers·t, walkers
// stuck at an isolated src included. One
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
	res := s.newResult(f, steps)
	// The source is covered at step 0; walkCover counts every other node
	// at the first step any walker reaches it.
	s.reserveEpochs(2)
	s.mark[src] = s.newEpoch()
	res.Hits[0] = 1
	s.walkCover(f, src, nil, walkers, steps, rng, res)
	return res, nil
}

// walkCover runs `walkers` independent non-backtracking walks of `steps`
// hops each, all from src or, when starts is non-nil, each from an entry of
// starts drawn uniformly before the walk. The nodes stamped with the
// current epoch count as covered already; walkCover stamps every other
// node a walker reaches with a fresh epoch (the caller reserves it) and
// keeps in val the earliest step at which any walker reached it.
//
// res holds one entry per walk step, res.Hits[0] and res.Messages[0] being
// the totals before the walk: it fills Hits[t] with those plus the new
// nodes reached within t steps, and Messages[t] with those plus walkers·t.
// A walker stuck at an isolated start covers nothing but is charged its
// steps like the others.
func (s *Scratch) walkCover(f *graph.Frozen, src int, starts []int32, walkers, steps int, rng *xrand.RNG, res Result) {
	covered := s.epoch
	ep := s.newEpoch()
	// seen lists the stamped nodes so the histogram never scans the graph.
	seen := s.cur[:0]
	for w := 0; w < walkers; w++ {
		start := src
		if starts != nil {
			start = int(starts[rng.Intn(len(starts))])
		}
		for t, v := range Walk(f, start, steps, rng) {
			switch s.mark[v] {
			case covered:
			case ep:
				s.val[v] = min(s.val[v], int32(t))
			default:
				s.mark[v] = ep
				s.val[v] = int32(t)
				seen = append(seen, int32(v))
			}
		}
	}
	s.cur = seen
	for _, v := range seen {
		res.Hits[s.val[v]]++
	}
	for t := 1; t <= steps; t++ {
		res.Hits[t] += res.Hits[t-1]
		res.Messages[t] = res.Messages[0] + walkers*t
	}
}

// HighDegreeWalk runs the Adamic et al. degree-seeking walk for exactly
// `steps` hops. At each hop the walker moves to the highest-degree neighbor
// it has not yet visited (ties broken uniformly at random); when every
// neighbor has been visited it falls back to a uniformly random neighbor
// excluding the one it just came from, as in RandomWalk. Hits[t] counts
// distinct nodes seen within the first t steps; Messages[t] == t, or 0
// throughout when an isolated src leaves the walker stuck (Hits stay 1).
// The Result aliases s.
func (s *Scratch) HighDegreeWalk(f *graph.Frozen, src, steps int, rng *xrand.RNG) (Result, error) {
	if err := validate(f, src, steps); err != nil {
		return Result{}, err
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
	res := s.newResult(f, steps)
	ep := s.newEpoch()
	s.walkHits(f, src, ep, res, rng, func(f *graph.Frozen, cur, prev int, rng *xrand.RNG) (int, bool) {
		if next := s.bestUnvisitedNeighbor(f, cur, ep, rng); next >= 0 {
			return next, true
		}
		return Step(f, cur, prev, rng)
	})
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
	res := s.newResult(f, maxTTL)
	s.sweep(f, src, maxTTL, res, func(u, sender int32, d int) ([]int32, int) {
		cand := s.cand[:0]
		for _, v := range f.Neighbors(int(u)) {
			// Row order, and no draw for the sender or at the source.
			if v != sender && (d == 0 || rng.Bool(p)) {
				cand = append(cand, v)
			}
		}
		s.cand = cand
		return cand, len(cand)
	})
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
	res := s.newResult(f, floodTTL+steps)
	// Two live epochs: the flood's coverage stamp and the walkers'
	// first-seen stamp. Reserving both up front keeps the first valid
	// across the wrap check inside the second newEpoch.
	s.reserveEpochs(2)
	flood := Result{Hits: res.Hits[:floodTTL+1], Messages: res.Messages[:floodTTL+1]}
	frontier := s.sweep(f, src, floodTTL, flood, func(u, _ int32, d int) ([]int32, int) { return floodRow(f, u, d) })

	// Walk starts: the flood's outermost frontier in ascending node order
	// (matching the reference implementation, which scans BFS depths by
	// node ID), falling back to the whole covered ball when the frontier is
	// empty.
	starts := append(s.cand[:0], frontier...)
	slices.Sort(starts)
	if len(starts) == 0 {
		for v, n := 0, f.N(); v < n; v++ {
			if s.mark[v] == s.epoch {
				starts = append(starts, int32(v))
			}
		}
	}
	s.cand = starts
	s.walkCover(f, 0, starts, walkers, steps, rng, Result{Hits: res.Hits[floodTTL:], Messages: res.Messages[floodTTL:]})
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
	res := s.newResult(f, maxTTL)
	depth := -1
	s.sweep(f, src, maxTTL, res, func(u, _ int32, d int) ([]int32, int) {
		if u == int32(target) {
			depth = d
		}
		return floodRow(f, u, d)
	})
	switch {
	case !s.Reached(target):
		return Delivery{Found: false, Time: maxTTL, Messages: res.MessagesAt(maxTTL)}, nil
	case depth < 0:
		depth = maxTTL // reached on the last shell, which never forwards
	}
	return Delivery{Found: true, Time: depth, Messages: res.MessagesAt(depth)}, nil
}
