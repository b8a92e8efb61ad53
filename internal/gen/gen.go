// Package gen implements every topology generator studied in the paper —
// the two global-information mechanisms (PA, CM), the two local mechanisms
// introduced by the paper (HAPA, DAPA), the substrate networks DAPA grows on
// (geometric random network, 2-D mesh), and classical baselines (ER,
// ring lattice, Watts–Strogatz) used for comparison.
//
// Algorithms follow the paper's Appendix A–D pseudo-code. Where the
// pseudo-code is ambiguous or can stall, the deviation is documented on the
// generator and surfaced in Stats.
//
// All generators are deterministic. The paper's mechanisms draw from the
// named phase sub-streams of a Build (xrand.Phases, keyed by seed,
// realization and phase), so the same seed and realization reproduce the
// same graph bit-for-bit for every Build.Workers value; PA, HAPA and the
// baselines also take a plain *xrand.RNG.
package gen

import (
	"errors"
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// NoCutoff disables the hard degree cutoff (kc = ∞ in the paper's notation,
// written "no kc" in the figures).
const NoCutoff = 0

// Locality describes how much global topology information a generator needs
// when a node joins (paper Table II).
type Locality int

const (
	// LocalityGlobal means the mechanism needs the full current topology
	// (every node's degree) at join time.
	LocalityGlobal Locality = iota + 1
	// LocalityPartial means the mechanism needs limited global state (e.g.
	// the total degree) plus local walks.
	LocalityPartial
	// LocalityLocal means the mechanism uses only information reachable
	// from the joining node's neighborhood.
	LocalityLocal
)

// String returns the Table II wording.
func (l Locality) String() string {
	switch l {
	case LocalityGlobal:
		return "Yes"
	case LocalityPartial:
		return "Partial"
	case LocalityLocal:
		return "No"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// Model identifies a topology-construction mechanism.
type Model string

// The four mechanisms compared in the paper, plus substrates/baselines.
const (
	ModelPA   Model = "PA"
	ModelCM   Model = "CM"
	ModelHAPA Model = "HAPA"
	ModelDAPA Model = "DAPA"
	ModelGRN  Model = "GRN"
	ModelMesh Model = "Mesh"
	ModelER   Model = "ER"
	ModelRing Model = "Ring"
	ModelWS   Model = "WS"
)

// ModelLocality maps each attachment mechanism to its Table II locality
// classification.
var ModelLocality = map[Model]Locality{
	ModelPA:   LocalityGlobal,
	ModelCM:   LocalityGlobal,
	ModelHAPA: LocalityPartial,
	ModelDAPA: LocalityLocal,
}

// Validation errors shared across generators.
var (
	ErrBadN      = errors.New("gen: node count must be positive and exceed the seed clique")
	ErrBadStubs  = errors.New("gen: stub count m must be >= 1")
	ErrBadCutoff = errors.New("gen: hard cutoff must be 0 (none) or >= m")
	ErrBadGamma  = errors.New("gen: degree exponent must be > 1")
	ErrStalled   = errors.New("gen: generator stalled (could not place required edges)")
)

// Stats reports what happened during generation. Beyond debugging, it backs
// the paper-fidelity checks in EXPERIMENTS.md (e.g. how many CM edges were
// removed as self-loops, how often PA's rejection loop needed the uniform
// fallback).
type Stats struct {
	// Attempts counts candidate evaluations across all rejection loops.
	Attempts int
	// Fallbacks counts stubs placed by the uniform fallback after the
	// preferential rejection loop exceeded its attempt budget.
	Fallbacks int
	// UnfilledStubs counts stubs that could not be placed at all (every
	// candidate saturated or already connected).
	UnfilledStubs int
	// SelfLoopsRemoved and MultiEdgesRemoved report the configuration
	// model's cleanup phase (paper §III-C).
	SelfLoopsRemoved  int
	MultiEdgesRemoved int
	// Hops counts walk steps taken by HAPA's hop phase.
	Hops int
	// HorizonQueries counts substrate BFS discoveries issued by DAPA.
	HorizonQueries int
	// EmptyHorizons counts DAPA candidates that found no peer in their
	// horizon and therefore could not join (paper: such nodes are not
	// added to the overlay).
	EmptyHorizons int
	// Joined is the number of nodes actually admitted to the overlay
	// (DAPA may fall short of the target if the substrate is fragmented).
	Joined int
}

// cutoffOK reports whether node u may accept one more link under hard
// cutoff kc (paper: condition k_node < kc).
func cutoffOK(g *graph.Graph, u, kc int) bool {
	return kc == NoCutoff || g.Degree(u) < kc
}

// seedClique builds the initial network of m+1 fully connected nodes that
// PA and HAPA grow from (Appendix A and C: "the user has already created a
// network with m+1 fully connected nodes").
func seedClique(g *graph.Graph, m int) error {
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := g.AddEdge(u, v); err != nil {
				return fmt.Errorf("seed clique: %w", err)
			}
		}
	}
	return nil
}

// validateGrowth checks the shared parameters of the growth models
// (PA, HAPA).
func validateGrowth(n, m, kc int) error {
	if m < 1 {
		return fmt.Errorf("%w: m=%d", ErrBadStubs, m)
	}
	if n < m+2 {
		return fmt.Errorf("%w: n=%d needs at least m+2=%d", ErrBadN, n, m+2)
	}
	if kc != NoCutoff && kc < m {
		return fmt.Errorf("%w: kc=%d < m=%d", ErrBadCutoff, kc, m)
	}
	return nil
}

// defaultRNG returns rng, or a fixed-seed generator if rng is nil, so that
// forgetting to pass an RNG still yields deterministic behavior.
func defaultRNG(rng *xrand.RNG) *xrand.RNG {
	if rng == nil {
		return xrand.New(0)
	}
	return rng
}
