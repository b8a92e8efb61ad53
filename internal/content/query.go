package content

// Query-resolution measurements over a placement: the expected search size
// of random-walk probing (Cohen & Shenker's objective) and flooding
// success rates at bounded TTL (the Gnutella deployment reality the paper
// opens with). Both resolvers read the topology through the CSR
// *graph.Frozen: a query workload is thousands of searches against one
// static overlay, exactly the freeze-once pattern. The flooding resolver
// is search.Scratch.Flood plus a look at the item's hosts against the
// flood's reached set, so its messages are FL's by construction.

import (
	"fmt"
	"slices"
	"sort"

	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// ErrBadGraph reports a placement/topology size mismatch.
var ErrBadGraph = fmt.Errorf("content: graph order does not match placement")

// ESSResult aggregates random-walk query resolution over a query workload.
type ESSResult struct {
	// Queries is the number of queries issued.
	Queries int
	// Found is how many located a replica within the step budget.
	Found int
	// MeanSteps is the mean number of probes over successful queries —
	// the empirical expected search size (ESS).
	MeanSteps float64
	// P95Steps is the 95th percentile of successful probe counts.
	P95Steps int
}

// SuccessRate returns Found/Queries (0 when no queries ran).
func (r ESSResult) SuccessRate() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Found) / float64(r.Queries)
}

// WalkToItem walks from src until it lands on a node hosting the item,
// counting the source itself as probe 0. It returns the number of probes
// (walk steps) used and whether the item was found within maxSteps.
func WalkToItem(f *graph.Frozen, p *Placement, src int, item Item, maxSteps int, rng *xrand.RNG) (steps int, found bool) {
	if p.HasItem(src, item) {
		return 0, true
	}
	cur, prev := src, -1
	for t := 1; t <= maxSteps; t++ {
		next, ok := search.Step(f, cur, prev, rng)
		if !ok {
			return t, false
		}
		prev, cur = cur, next
		if p.HasItem(cur, item) {
			return t, true
		}
	}
	return maxSteps, false
}

// ResolveQuery issues one popularity-distributed query from a uniformly
// random source and resolves it with a non-backtracking random walk
// bounded by maxSteps. It is the per-query kernel of ExpectedSearchSize,
// exposed so sharded workloads can run each query on its own RNG stream
// and aggregate the slots with CollectESS.
func ResolveQuery(f *graph.Frozen, p *Placement, c *Catalog, maxSteps int, rng *xrand.RNG) (steps int, found bool) {
	item := c.SampleQuery(rng)
	src := rng.Intn(f.N())
	return WalkToItem(f, p, src, item, maxSteps, rng)
}

// CollectESS aggregates per-query (steps, found) slots — indexed by query,
// in workload order — into the ESSResult ExpectedSearchSize returns. The
// mean sums integer step counts in slot order and the percentile sorts, so
// the result does not depend on how the queries were scheduled.
func CollectESS(steps []int, found []bool) ESSResult {
	res := ESSResult{Queries: len(steps)}
	var successSteps []int
	var sum float64
	for q, ok := range found {
		if !ok {
			continue
		}
		res.Found++
		sum += float64(steps[q])
		successSteps = append(successSteps, steps[q])
	}
	if res.Found > 0 {
		res.MeanSteps = sum / float64(res.Found)
		res.P95Steps = percentileInt(successSteps, 0.95)
	}
	return res
}

// ExpectedSearchSize issues `queries` popularity-distributed queries from
// uniformly random sources and resolves each with a non-backtracking
// random walk bounded by maxSteps, returning the aggregate ESS statistics.
// This is the measurement Cohen & Shenker optimize: square-root
// replication minimizes the popularity-weighted mean probe count.
func ExpectedSearchSize(f *graph.Frozen, p *Placement, c *Catalog, queries, maxSteps int, rng *xrand.RNG) (ESSResult, error) {
	if f.N() != len(p.onNode) {
		return ESSResult{}, fmt.Errorf("%w: graph %d, placement %d", ErrBadGraph, f.N(), len(p.onNode))
	}
	if queries < 1 {
		return ESSResult{}, fmt.Errorf("content: queries %d must be >= 1", queries)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	steps := make([]int, queries)
	found := make([]bool, queries)
	for q := 0; q < queries; q++ {
		steps[q], found[q] = ResolveQuery(f, p, c, maxSteps, rng)
	}
	return CollectESS(steps, found), nil
}

// FloodResult aggregates flooding query resolution over a workload.
type FloodResult struct {
	// Queries is the number of queries issued.
	Queries int
	// Found is how many located a replica within the TTL.
	Found int
	// MeanMessages is the mean flood transmissions per query (successful
	// or not) — the §V-B2 messaging-complexity axis applied to content.
	MeanMessages float64
}

// SuccessRate returns Found/Queries (0 when no queries ran).
func (r FloodResult) SuccessRate() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Found) / float64(r.Queries)
}

// floodForItem floods from src with the given TTL and reports whether any
// node within the TTL ball hosts the item, plus the messages the flood
// spent. In a deployed network the flood would stop early on a hit; the
// message count here is the worst case, as in the paper's FL model (the
// destination "cannot stop the search", §V-A1). It reuses the caller's
// search scratch, so repeated queries against one topology allocate
// nothing.
func floodForItem(f *graph.Frozen, p *Placement, src int, item Item, ttl int, s *search.Scratch) (found bool, messages int, err error) {
	res, err := s.Flood(f, src, ttl)
	if err != nil {
		return false, 0, err
	}
	found = slices.ContainsFunc(p.Hosts(item), func(h int32) bool { return s.Reached(int(h)) })
	return found, res.Messages[ttl], nil
}

// FloodSuccess issues popularity-distributed queries resolved by flooding
// with the given TTL and aggregates success rate and message cost.
func FloodSuccess(f *graph.Frozen, p *Placement, c *Catalog, queries, ttl int, rng *xrand.RNG) (FloodResult, error) {
	if f.N() != len(p.onNode) {
		return FloodResult{}, fmt.Errorf("%w: graph %d, placement %d", ErrBadGraph, f.N(), len(p.onNode))
	}
	if queries < 1 {
		return FloodResult{}, fmt.Errorf("content: queries %d must be >= 1", queries)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	res := FloodResult{Queries: queries}
	var msgSum float64
	var scratch search.Scratch // one BFS state reused across the workload
	for q := 0; q < queries; q++ {
		item := c.SampleQuery(rng)
		src := rng.Intn(f.N())
		found, msgs, err := floodForItem(f, p, src, item, ttl, &scratch)
		if err != nil {
			return FloodResult{}, err
		}
		if found {
			res.Found++
		}
		msgSum += float64(msgs)
	}
	res.MeanMessages = msgSum / float64(queries)
	return res, nil
}

// percentileInt returns the q-th percentile of xs (nearest-rank, xs is
// sorted in place).
func percentileInt(xs []int, q float64) int {
	if len(xs) == 0 {
		return 0
	}
	sort.Ints(xs)
	idx := int(q*float64(len(xs))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}
