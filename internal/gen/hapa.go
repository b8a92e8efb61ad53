package gen

import (
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
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	rng = defaultRNG(rng)
	g := graph.New(cfg.N)
	if err := seedClique(g, cfg.M); err != nil {
		return nil, st, err
	}

	kTotal := g.TotalDegree()
	for i := cfg.M + 1; i < cfg.N; i++ {
		filled := 0
		// First attempt from a uniform random node (Appendix C lines 3-7).
		pos := rng.Intn(i)
		if hapaAttempt(g, i, pos, cfg.KC, kTotal, rng, &st) {
			filled++
			kTotal += 2
		}
		restarts := 0
		hops := 0
		for filled < cfg.M {
			if hops >= hapaHopBudget {
				hops = 0
				restarts++
				if restarts > hapaRestartBudget {
					if cand := paFallback(g, i, cfg.KC, rng); cand >= 0 {
						st.Fallbacks++
						mustEdge(g, i, cand)
						kTotal += 2
						filled++
						continue
					}
					st.UnfilledStubs += cfg.M - filled
					break
				}
				pos = rng.Intn(i)
			}
			// Hop along an existing link (Appendix C line 10): a uniform
			// draw over pos's row, on the concrete RNG.
			next := -1
			if nbrs := g.Neighbors(pos); len(nbrs) > 0 {
				next = int(nbrs[rng.Intn(len(nbrs))])
			}
			if next < 0 || next >= i {
				// pos is isolated (an unfilled earlier join) or the hop
				// landed on the joining node itself — restart.
				pos = rng.Intn(i)
				continue
			}
			pos = next
			hops++
			st.Hops++
			if hapaAttempt(g, i, pos, cfg.KC, kTotal, rng, &st) {
				filled++
				kTotal += 2
			}
		}
	}
	return g, st, nil
}

// HAPABuild is HAPA drawing from the build's "hapa.grow" phase stream.
// Like PA, the hop walk is inherently sequential, so Workers has no effect
// on the output.
func HAPABuild(cfg HAPAConfig, b Build) (*graph.Graph, Stats, error) {
	return HAPA(cfg, b.Phases.Stream("hapa.grow"))
}

// hapaAttempt performs one preferential connection attempt of node i at
// walk position pos (Appendix C lines 4 and 11): reject if already
// adjacent, self, or at the cutoff; otherwise accept with probability
// k_pos/k_total.
func hapaAttempt(g *graph.Graph, i, pos, kc, kTotal int, rng *xrand.RNG, st *Stats) bool {
	st.Attempts++
	if pos == i || g.HasEdge(i, pos) || !cutoffOK(g, pos, kc) {
		return false
	}
	if rng.Float64() >= float64(g.Degree(pos))/float64(kTotal) {
		return false
	}
	mustEdge(g, i, pos)
	return true
}
