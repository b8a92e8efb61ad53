package metrics

import (
	"math"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// brandes is the Brandes betweenness pass (unweighted, O(V·E)) of one
// removal experiment. Betweenness identifies the peers "through which
// most of the traffic go[es]" (paper §III) — the targets whose removal
// "can easily shatter the network" — and prices every live node for the
// betweenness attack. It runs on the removal's rows, which keep the
// neighbor order of a Graph mutated by the same removals, so its
// floating-point sums match a Graph-based pass bit for bit. Its state is
// allocated once and reused by every step: dist, sigma, delta and preds
// are clean (-1, 0, 0, empty) between pivots, because each pivot resets
// exactly the nodes its BFS reached.
type brandes struct {
	dist         []int32
	sigma, delta []float64 // shortest-path counts, dependency accumulation
	// preds[v], v's BFS predecessors (one per parallel edge), is a flat
	// array's range of v's snapshot degree, which its row never exceeds.
	preds         [][]int32
	queue         []int32 // BFS order of the current pivot
	bc, se, sumsq []float64
}

// newBrandes sizes the state for f's rows.
func newBrandes(f *graph.Frozen) *brandes {
	n := f.N()
	b := &brandes{
		dist: make([]int32, n), sigma: make([]float64, n), delta: make([]float64, n),
		preds: make([][]int32, n), queue: make([]int32, 0, n),
		bc: make([]float64, n), se: make([]float64, n), sumsq: make([]float64, n),
	}
	flat, lo := make([]int32, f.TotalDegree()), 0
	for v := range n {
		hi := lo + f.Degree(v)
		b.preds[v], b.dist[v] = flat[lo:lo:hi], -1
		lo = hi
	}
	return b
}

// run returns each node's (unnormalized) shortest-path betweenness over
// rows — the sum over node pairs (s,t) of the fraction of shortest s-t
// paths through the node — and its standard error, both slices the
// state's own until the next run. With 0 < pivots < n it is the
// Brandes–Pich estimate from that many random source pivots, with se from
// the empirical variance of the per-pivot dependencies δ_p(i):
//
//	bc[i] = (n/2p)·Σ_p δ_p(i)    se[i] = (n/2)·s_i/√p    (s_i their sample sd)
//
// Otherwise it is exact and draws nothing; se is zero then, as for p < 2.
func (b *brandes) run(rows [][]int32, pivots int, rng *xrand.RNG) (bc, se []float64) {
	n, sumsq := len(rows), b.sumsq
	bc, se = b.bc, b.se
	clear(bc)
	clear(se)
	clear(sumsq)
	exact := pivots <= 0 || pivots >= n
	if exact {
		pivots = n
	}
	dist, sigma, delta, preds := b.dist, b.sigma, b.delta, b.preds
	for p := 0; p < pivots; p++ {
		s := p
		if !exact {
			s = rng.Intn(n)
		}
		// BFS from s tracking predecessors and path counts.
		dist[s] = 0
		sigma[s] = 1
		queue := append(b.queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range rows[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		// Dependency accumulation in reverse BFS order. delta[w] is final
		// when w is popped, so the per-pivot contribution (and its square,
		// for the variance) accumulates right here; nodes the BFS never
		// reached contribute an implicit zero.
		for i := len(queue) - 1; i >= 0; i-- {
			w := queue[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if int(w) != s {
				bc[w] += delta[w]
				sumsq[w] += delta[w] * delta[w]
			}
		}
		for _, w := range queue {
			dist[w], sigma[w], delta[w], preds[w] = -1, 0, 0, preds[w][:0]
		}
		b.queue = queue
	}
	// Exact runs count each pair from both endpoints: halve. Sampled ones
	// also scale up from `pivots` sources to n, after the standard errors
	// are taken from the raw per-pivot sums.
	scale := 0.5
	if !exact {
		scale = float64(n) / float64(pivots) / 2
		if pivots > 1 {
			p, half := float64(pivots), float64(n)/2
			for i := range se {
				mean := bc[i] / p
				if variance := (sumsq[i] - p*mean*mean) / (p - 1); variance > 0 {
					se[i] = half * math.Sqrt(variance/p)
				}
			}
		}
	}
	for i := range bc {
		bc[i] *= scale
	}
	return bc, se
}
