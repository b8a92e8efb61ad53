// Package content implements the data layer the paper's search algorithms
// serve: items with a popularity distribution, replicated onto peers under
// the classic strategies of Cohen & Shenker, "Replication strategies in
// unstructured peer-to-peer networks" (paper ref [22]) and Lv et al.
// (paper ref [23]).
//
// The paper evaluates search as a node sweep ("number of hits"); in a
// deployed Gnutella-like system those hits matter because each discovered
// peer may hold the queried item. This package closes that loop: it places
// item replicas, draws queries from a Zipf popularity law, and measures the
// expected search size (ESS) — the number of probes until the first
// replica — and flooding success rates on the very topologies
// internal/gen builds. Cohen & Shenker's headline result, that square-root
// replication minimizes ESS for random-probe search, is reproduced by the
// "replication" experiment in internal/sim.
package content

import (
	"errors"
	"fmt"
	"math"

	"scalefree/internal/xrand"
)

// Validation errors.
var (
	ErrBadItems  = errors.New("content: number of items must be >= 1")
	ErrBadAlpha  = errors.New("content: Zipf exponent must be >= 0")
	ErrBadBudget = errors.New("content: replication budget must be >= number of items")
	ErrBadNodes  = errors.New("content: node count must be >= 1")
)

// Item identifies one data item in a catalog.
type Item int

// Catalog is a set of items with Zipf-distributed query popularity:
// the i-th most popular item (0-based) is queried with probability
// proportional to (i+1)^-alpha. Alpha=0 is uniform popularity; measured
// Gnutella workloads are around alpha≈0.6-1.0.
type Catalog struct {
	weights []float64 // normalized query rates, weights[i] = q_i
	cdf     []float64 // prefix sums of weights for sampling
}

// NewCatalog builds a catalog of numItems items with Zipf exponent alpha.
func NewCatalog(numItems int, alpha float64) (*Catalog, error) {
	if numItems < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadItems, numItems)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadAlpha, alpha)
	}
	weights := make([]float64, numItems)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -alpha)
		sum += weights[i]
	}
	cdf := make([]float64, numItems)
	var acc float64
	for i := range weights {
		weights[i] /= sum
		acc += weights[i]
		cdf[i] = acc
	}
	cdf[numItems-1] = 1 // guard against rounding drift
	return &Catalog{weights: weights, cdf: cdf}, nil
}

// NumItems returns the catalog size.
func (c *Catalog) NumItems() int { return len(c.weights) }

// QueryRate returns the normalized popularity q_i of an item.
func (c *Catalog) QueryRate(i Item) float64 {
	if i < 0 || int(i) >= len(c.weights) {
		return 0
	}
	return c.weights[i]
}

// SampleQuery draws an item according to the popularity distribution.
func (c *Catalog) SampleQuery(rng *xrand.RNG) Item {
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Item(lo)
}

// Strategy selects a Cohen–Shenker replica-allocation rule.
type Strategy int

const (
	// Uniform gives every item the same number of replicas regardless of
	// popularity — optimal for none, fair to rare items.
	Uniform Strategy = iota
	// Proportional replicates each item in proportion to its query rate —
	// what passive caching produces; great for popular items, terrible ESS
	// on the tail.
	Proportional
	// SquareRoot replicates in proportion to the square root of the query
	// rate — Cohen & Shenker's optimum for expected search size under
	// random probing.
	SquareRoot
)

// String names the strategy as in the replication literature.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Proportional:
		return "proportional"
	case SquareRoot:
		return "square-root"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Placement records which nodes host which items.
type Placement struct {
	hosts  [][]int32 // item -> hosting nodes
	onNode []map[Item]struct{}
	copies int
}

// Replicas returns the number of copies of an item.
func (p *Placement) Replicas(i Item) int {
	if i < 0 || int(i) >= len(p.hosts) {
		return 0
	}
	return len(p.hosts[i])
}

// Hosts returns the nodes hosting an item (shared slice; do not mutate).
func (p *Placement) Hosts(i Item) []int32 {
	if i < 0 || int(i) >= len(p.hosts) {
		return nil
	}
	return p.hosts[i]
}

// HasItem reports whether a node hosts an item.
func (p *Placement) HasItem(node int, i Item) bool {
	if node < 0 || node >= len(p.onNode) || p.onNode[node] == nil {
		return false
	}
	_, ok := p.onNode[node][i]
	return ok
}

// TotalCopies returns the number of (item, node) placements made.
func (p *Placement) TotalCopies() int { return p.copies }

// Replicate places item replicas on n nodes under the given strategy with
// a total budget of `budget` copies. Every item receives at least one
// replica and at most n (replicas of one item live on distinct nodes,
// chosen uniformly at random). The realized total may differ slightly from
// the budget because of the per-item floor/ceiling and rounding.
func Replicate(c *Catalog, n, budget int, s Strategy, rng *xrand.RNG) (*Placement, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadNodes, n)
	}
	if budget < c.NumItems() {
		return nil, fmt.Errorf("%w: budget %d < items %d", ErrBadBudget, budget, c.NumItems())
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	k := c.NumItems()
	share := make([]float64, k)
	var norm float64
	for i := 0; i < k; i++ {
		switch s {
		case Uniform:
			share[i] = 1
		case Proportional:
			share[i] = c.QueryRate(Item(i))
		case SquareRoot:
			share[i] = math.Sqrt(c.QueryRate(Item(i)))
		default:
			return nil, fmt.Errorf("content: unknown strategy %d", int(s))
		}
		norm += share[i]
	}
	p := &Placement{
		hosts:  make([][]int32, k),
		onNode: make([]map[Item]struct{}, n),
	}
	scratch := make([]int32, 0, 64)
	for i := 0; i < k; i++ {
		r := int(math.Round(float64(budget) * share[i] / norm))
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		scratch = sampleDistinct(scratch[:0], n, r, rng)
		p.hosts[i] = append([]int32(nil), scratch...)
		for _, node := range scratch {
			if p.onNode[node] == nil {
				p.onNode[node] = make(map[Item]struct{})
			}
			p.onNode[node][Item(i)] = struct{}{}
		}
		p.copies += r
	}
	return p, nil
}

// sampleDistinct appends r distinct integers from [0,n) to dst. For small
// r it uses rejection against a set; for r close to n it shuffles.
func sampleDistinct(dst []int32, n, r int, rng *xrand.RNG) []int32 {
	if r >= n {
		for v := 0; v < n; v++ {
			dst = append(dst, int32(v))
		}
		return dst
	}
	if r > n/4 {
		perm := rng.Perm(n)
		for _, v := range perm[:r] {
			dst = append(dst, int32(v))
		}
		return dst
	}
	seen := make(map[int32]struct{}, r)
	for len(dst) < r {
		v := int32(rng.Intn(n))
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		dst = append(dst, v)
	}
	return dst
}
