package graph

import "math"

// Betweenness centrality via Brandes' algorithm (unweighted, O(V·E)).
// Betweenness identifies the peers "through which most of the traffic
// go[es]" (paper §III) — the targets whose removal "can easily shatter
// the network". metrics.Robustness uses it for the strongest attack
// variant.
//
// The computation runs on the CSR form: a Frozen's flat neighbor array
// keeps the pivot BFS loops cache-resident, and because Freeze preserves
// neighbor order the accumulation order — hence every floating-point sum —
// is identical to the historical slice-of-slices implementation.

// Betweenness returns each node's (unnormalized) shortest-path betweenness
// centrality: the sum over all node pairs (s,t) of the fraction of
// shortest s-t paths passing through the node. For graphs larger than
// `sampleSources` it estimates by accumulating from that many random
// source pivots scaled up to N (the standard Brandes–Pich approximation);
// pass sampleSources >= N (or <= 0) for the exact computation.
func (f *Frozen) Betweenness(sampleSources int, rng randSource) []float64 {
	bc, _ := f.betweenness(sampleSources, rng, false)
	return bc
}

// BetweennessSampled is Betweenness plus uncertainty: alongside the
// Brandes–Pich estimate it returns each node's standard error, derived
// from the empirical variance of its per-pivot dependency contributions:
//
//	bc[i] = (n/2p)·Σ_p δ_p(i)    se[i] = (n/2)·s_i/√p
//
// where s_i is the sample standard deviation of δ_p(i) over the p pivots.
// With the same rng state it consumes the identical pivot draws as
// Betweenness, so bc matches that method bit for bit. For an exact run
// (pivots <= 0 or >= n, or p < 2) there is no sampling uncertainty and se
// is all zeros.
func (f *Frozen) BetweennessSampled(pivots int, rng randSource) (bc, se []float64) {
	return f.betweenness(pivots, rng, true)
}

func (f *Frozen) betweenness(sampleSources int, rng randSource, wantSE bool) (bc, se []float64) {
	n := f.N()
	bc = make([]float64, n)
	if wantSE {
		se = make([]float64, n)
	}
	if n == 0 {
		return bc, se
	}
	exact := sampleSources <= 0 || sampleSources >= n
	pivots := n
	if !exact {
		pivots = sampleSources
	}
	var sumsq []float64
	if wantSE && !exact && pivots > 1 {
		sumsq = make([]float64, n)
	}

	// Reusable per-source state.
	dist := make([]int32, n)
	sigma := make([]float64, n) // shortest-path counts
	delta := make([]float64, n) // dependency accumulation
	order := make([]int32, 0, n)
	preds := make([][]int32, n)

	for p := 0; p < pivots; p++ {
		s := p
		if !exact {
			s = rng.Intn(n)
		}
		// BFS from s tracking predecessors and path counts.
		for i := range dist {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		dist[s] = 0
		sigma[s] = 1
		queue := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			order = append(order, u)
			for _, v := range f.Neighbors(int(u)) {
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
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if int(w) != s {
				bc[w] += delta[w]
				if sumsq != nil {
					sumsq[w] += delta[w] * delta[w]
				}
			}
		}
	}
	// Each undirected pair is counted from both endpoints when all
	// sources are visited; halve per convention. The sampled estimator
	// additionally scales up from `pivots` sources to n. The standard
	// errors derive from the raw per-pivot sums, so compute them before
	// bc is scaled in place.
	scale := 0.5
	if !exact {
		scale = float64(n) / float64(pivots) / 2
	}
	if sumsq != nil {
		p := float64(pivots)
		half := float64(n) / 2
		for i := range se {
			mean := bc[i] / p
			variance := (sumsq[i] - p*mean*mean) / (p - 1)
			if variance > 0 {
				se[i] = half * math.Sqrt(variance/p)
			}
		}
	}
	for i := range bc {
		bc[i] *= scale
	}
	return bc, se
}
