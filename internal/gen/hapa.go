package gen

import (
	"slices"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// HAPAConfig parameterizes Hop-and-Attempt Preferential Attachment
// (paper §IV-A, Appendix C).
type HAPAConfig struct {
	// N is the final number of nodes (including the m+1 seed clique).
	N int
	// M is the number of stubs each joining node brings.
	M int
	// KC is the hard degree cutoff; NoCutoff (0) disables it.
	KC int
}

func (c HAPAConfig) validate() error { return validateGrowth(c.N, c.M, c.KC) }

// hapaHopBudget bounds the hop walk per stub before falling back to a fresh
// uniform restart, and hapaRestartBudget bounds restarts before the exact
// weighted fallback. Without a cutoff the walk concentrates on super-hubs
// and terminates fast; with a tight cutoff acceptance probabilities shrink
// and the budget guards against stalls on saturated neighborhoods.
const (
	hapaHopBudget     = 50_000
	hapaRestartBudget = 8
)

// HAPA generates a topology by Hop-and-Attempt Preferential Attachment: a
// joining node i picks a uniform random existing node, attempts the
// preferential connection there (accept with probability k/k_total,
// subject to the cutoff and no-duplicate conditions), and then walks along
// existing links, re-attempting at every stop until its M stubs are filled.
//
// Hopping finds hubs far more often than uniform sampling does, so without
// a hard cutoff HAPA degenerates into a star-like topology dominated by
// ~m+1 "super hubs" of degree O(N) (Fig. 3a); a hard cutoff destroys the
// star and restores a power-law-like distribution with exponential
// corrections (Figs. 3b, 3c).
//
// Fidelity note: Appendix C line 8 resets the walk to the joining node i
// itself, which is undefined when the first attempt failed (i has no links
// yet). We follow the prose of §IV-A instead — "the new node hops between
// the neighboring nodes ... by using the existing links" — walking from the
// initially selected node. Walks that exhaust hapaHopBudget restart from a
// fresh uniform node; after hapaRestartBudget restarts the stub is placed
// by an exact degree-weighted draw (Stats.Fallbacks) or recorded as
// unfilled if every candidate is saturated. A nil rng uses a fixed-seed
// generator.
func HAPA(cfg HAPAConfig, rng *xrand.RNG) (*graph.Graph, Stats, error) {
	return hapa(cfg, rng, nil)
}

// hapa is HAPA growing in the graph arena lends (a nil arena allocates
// it).
func hapa(cfg HAPAConfig, rng *xrand.RNG, arena *graph.CSRArena) (*graph.Graph, Stats, error) {
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	rng = defaultRNG(rng)
	g := arena.Graph(cfg.N)
	if err := seedClique(g, cfg.M); err != nil {
		return nil, st, err
	}

	// One stop of the walk costs one attempt and one hop, and almost every
	// attempt is rejected, so the loop keeps each stop to what the draw
	// order needs: row is pos's adjacency row, fetched once per stop (its
	// length is the degree the attempt tests, and the next hop draws from
	// it), and mine is i's own row, at most M entries long, which answers
	// "is i already linked to pos?". Both are refetched after every link
	// i makes, because the append may move them.
	kc, kTotal := cfg.KC, g.TotalDegree()
	attempts, hops := 0, 0
	var fb fallbackBuf
	for i := cfg.M + 1; i < cfg.N; i++ {
		var mine []int32
		filled, walk, restarts := 0, 0, 0
		// First attempt from a uniform random node (Appendix C lines 3-7).
		pos := rng.Intn(i)
		row := g.Neighbors(pos)
	join:
		for {
			// One preferential attempt at pos (lines 4 and 11): reject if
			// pos is at the cutoff or already linked to i, else accept
			// with probability k_pos/k_total. pos < i always holds.
			attempts++
			if (kc == NoCutoff || len(row) < kc) && !slices.Contains(mine, int32(pos)) &&
				rng.Float64() < float64(len(row))/float64(kTotal) {
				mustEdge(g, i, pos)
				kTotal += 2
				filled++
				row, mine = g.Neighbors(pos), g.Neighbors(i)
			}
			for filled < cfg.M {
				if walk >= hapaHopBudget {
					walk = 0
					restarts++
					if restarts > hapaRestartBudget {
						cand := paFallback(g, i, kc, rng, &fb)
						if cand < 0 {
							st.UnfilledStubs += cfg.M - filled
							break join
						}
						st.Fallbacks++
						mustEdge(g, i, cand)
						kTotal += 2
						filled++
						row, mine = g.Neighbors(pos), g.Neighbors(i)
						continue
					}
					pos = rng.Intn(i)
					row = g.Neighbors(pos)
				}
				// Hop along an existing link (line 10): a uniform draw
				// over pos's row.
				if len(row) > 0 {
					if next := int(row[rng.Intn(len(row))]); next < i {
						pos, row = next, g.Neighbors(next)
						walk++
						hops++
						continue join
					}
				}
				// pos is isolated (an unfilled earlier join) or the hop
				// landed on the joining node itself — restart.
				pos = rng.Intn(i)
				row = g.Neighbors(pos)
			}
			break
		}
	}
	st.Attempts, st.Hops = attempts, hops
	return g, st, nil
}

// HAPABuild is HAPA drawing from the build's "hapa.grow" phase stream.
// Like PA, the hop walk is inherently sequential, so Workers has no effect
// on the output. With a Build.Arena it grows in the graph the arena lends,
// as PABuild does, and the returned graph stays valid only until the
// arena's next build.
func HAPABuild(cfg HAPAConfig, b Build) (*graph.Graph, Stats, error) {
	return hapa(cfg, b.Phases.Stream("hapa.grow"), b.Arena)
}
