package gen

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// PAConfig parameterizes preferential attachment with hard cutoffs
// (paper §III-B, Appendix A).
type PAConfig struct {
	// N is the final number of nodes (including the m+1 seed clique).
	N int
	// M is the number of stubs each joining node brings (the paper's m;
	// also the minimum degree of every non-seed node).
	M int
	// KC is the hard degree cutoff; NoCutoff (0) disables it.
	KC int
}

func (c PAConfig) validate() error { return validateGrowth(c.N, c.M, c.KC) }

// paAttemptBudget bounds each stub's rejection loop before the generator
// falls back to an exact weighted choice over eligible candidates. The
// fallback preserves the preferential distribution; the budget only guards
// against pathological stall (e.g. every candidate saturated at kc).
const paAttemptBudget = 10_000

// PA generates a Barabási–Albert preferential-attachment network, with the
// paper's hard-cutoff modification: nodes at degree kc reject further
// links. Each new node connects to M distinct existing nodes chosen with
// probability proportional to their degrees among nodes below the cutoff.
// A nil rng uses a fixed-seed generator.
//
// Without a cutoff this yields P(k) ~ k^-3 asymptotically (γ≈2.85 at
// N=10^5, Fig. 1a); with a cutoff the distribution accumulates a spike at
// kc and the fitted exponent drops (Figs. 1b, 1c).
func PA(cfg PAConfig, rng *xrand.RNG) (*graph.Graph, Stats, error) {
	return pa(cfg, rng, nil)
}

// pa is PA growing in the graph arena lends, with its stub list drawn
// from arena scratch (a nil arena allocates both).
func pa(cfg PAConfig, rng *xrand.RNG, arena *graph.CSRArena) (*graph.Graph, Stats, error) {
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	rng = defaultRNG(rng)
	g := arena.Graph(cfg.N)
	if err := seedClique(g, cfg.M); err != nil {
		return nil, st, err
	}

	// Stub list: each node appears once per unit of degree, so a uniform
	// index draw is a degree-proportional node draw. Rejecting draws that
	// violate the adjacency/cutoff conditions leaves the conditional
	// distribution identical to Appendix A's loop. It never outgrows
	// 2·M·N entries: the seed clique holds M(M+1) and each of the N−M−1
	// joins adds at most 2M.
	stubs := arena.Grab(2 * cfg.M * cfg.N)[:0]
	for u := 0; u < g.N(); u++ {
		for i := 0; i < g.Degree(u); i++ {
			stubs = append(stubs, int32(u))
		}
	}

	var fb fallbackBuf
	for i := cfg.M + 1; i < cfg.N; i++ {
		for j := 0; j < cfg.M; j++ {
			placed := false
			for attempt := 0; attempt < paAttemptBudget; attempt++ {
				st.Attempts++
				cand := int(stubs[rng.Intn(len(stubs))])
				if cand == i || g.HasEdge(i, cand) || !cutoffOK(g, cand, cfg.KC) {
					continue
				}
				mustEdge(g, i, cand)
				stubs = append(stubs, int32(i), int32(cand))
				placed = true
				break
			}
			if placed {
				continue
			}
			// Exact weighted fallback over the (possibly tiny) eligible set.
			if cand := paFallback(g, i, cfg.KC, rng, &fb); cand >= 0 {
				st.Fallbacks++
				mustEdge(g, i, cand)
				stubs = append(stubs, int32(i), int32(cand))
			} else {
				st.UnfilledStubs++
			}
		}
	}
	arena.Release(stubs)
	return g, st, nil
}

// PABuild is PA drawing from the build's "pa.grow" phase stream. The
// growth process is inherently sequential (each join's acceptance depends
// on the degrees left by every earlier join), so Workers has no effect and
// the topology is trivially identical for any build parallelism.
//
// With a Build.Arena, the graph is the one the arena lends and the stub
// list is arena scratch, so a lane's repeated builds allocate neither.
// The returned graph then stays valid only until the arena's next build:
// freeze or use it up first.
func PABuild(cfg PAConfig, b Build) (*graph.Graph, Stats, error) {
	return pa(cfg, b.Phases.Stream("pa.grow"), b.Arena)
}

// fallbackBuf holds paFallback's candidate and weight lists. A build
// keeps one for all its joins, so the fallback reuses the lists instead
// of growing two O(i) slices on every call.
type fallbackBuf struct {
	cands   []int
	weights []float64
}

// paFallback draws an eligible neighbor for node i exactly proportionally
// to degree, scanning all nodes below i, with buf's lists as scratch.
// Returns -1 if no node is eligible.
func paFallback(g *graph.Graph, i, kc int, rng *xrand.RNG, buf *fallbackBuf) int {
	cands, weights := buf.cands[:0], buf.weights[:0]
	for u := 0; u < i; u++ {
		if u != i && !g.HasEdge(i, u) && cutoffOK(g, u, kc) && g.Degree(u) > 0 {
			cands = append(cands, u)
			weights = append(weights, float64(g.Degree(u)))
		}
	}
	buf.cands, buf.weights = cands, weights
	idx := rng.Choose(weights)
	if idx < 0 {
		return -1
	}
	return cands[idx]
}

// mustEdge adds an edge that cannot fail by construction (both endpoints
// already validated); a failure indicates a bug, so it panics rather than
// silently corrupting the topology.
func mustEdge(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("gen: internal edge insertion failed: %v", err))
	}
}
