// Package search implements the three decentralized search algorithms the
// paper evaluates on unstructured P2P overlays (§V-A):
//
//   - Flooding (FL): every node forwards a query to all neighbors except
//     the sender, up to a TTL τ. Exhaustive (a complete sweep of the
//     τ-hop ball) but message-hungry — the efficiency ceiling other
//     algorithms are compared against.
//   - Normalized Flooding (NF): nodes forward to at most k_min neighbors
//     (the minimum degree in the network), fixing FL's poor granularity at
//     hubs. Introduced by Gkantsidis, Mihail & Saberi.
//   - Random Walk (RW): the query wanders one neighbor at a time,
//     excluding the node it just came from. Minimal messaging, serial
//     delivery. For fair comparison the paper gives RW the same message
//     budget NF used at each τ (RandomWalkWithNFBudget).
//
// All algorithms measure search efficiency as "number of hits": the count
// of distinct nodes discovered (including the source) within the TTL.
// Duplicate query copies are suppressed, as Gnutella does by query GUID.
//
// Fig. 5 of the paper is a schematic of these three strategies; it has no
// data series and is documented by this package instead.
//
// Flooding has two loops on a Scratch. The single-source sweep is one
// two-queue BFS that every flooding protocol shares: FL, NF (and NF's load
// profile) and probabilistic flooding differ only in the rule that picks
// which neighbors a node forwards to, and FloodDelivery and the hybrid
// strategy read a target's depth and the final frontier from the same
// sweep. FloodBatch floods up to 64 sources in one pass, one bit per
// source in a word per node, and returns the same per-TTL hits for each,
// and no messages; the FL figures (Figs. 6–8) average hits over many
// sources of one frozen topology, so their sweep cost is per batch rather
// than per source.
package search

import (
	"errors"
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// Validation errors.
var (
	ErrBadSource = errors.New("search: source node out of range")
	ErrBadTTL    = errors.New("search: TTL must be >= 0")
	ErrBadKMin   = errors.New("search: k_min must be >= 1")
)

// Result is the per-TTL outcome of one search from one source.
type Result struct {
	// Hits[t] is the number of distinct nodes discovered within TTL t
	// (Hits[0] == 1: the source itself). len(Hits) == maxTTL+1.
	Hits []int
	// Messages[t] is the cumulative number of query transmissions sent
	// by nodes at depth < t (Messages[0] == 0). It is nil in FloodBatch
	// results, which count hits only.
	Messages []int
}

// HitsAt returns Hits[t], clamped to the final value for t beyond the
// simulated horizon (coverage is monotone in TTL).
func (r Result) HitsAt(t int) int {
	if len(r.Hits) == 0 {
		return 0
	}
	if t >= len(r.Hits) {
		t = len(r.Hits) - 1
	}
	if t < 0 {
		t = 0
	}
	return r.Hits[t]
}

// MessagesAt returns Messages[t] with the same clamping as HitsAt.
func (r Result) MessagesAt(t int) int {
	if len(r.Messages) == 0 {
		return 0
	}
	if t >= len(r.Messages) {
		t = len(r.Messages) - 1
	}
	if t < 0 {
		t = 0
	}
	return r.Messages[t]
}

func validate(f *graph.Frozen, src, maxTTL int) error {
	if src < 0 || src >= f.N() {
		return fmt.Errorf("%w: %d (n=%d)", ErrBadSource, src, f.N())
	}
	if maxTTL < 0 {
		return fmt.Errorf("%w: %d", ErrBadTTL, maxTTL)
	}
	return nil
}

// Step advances a non-backtracking walker one hop: a uniformly random
// neighbor of cur excluding prev, backtracking to prev when cur is a dead
// end. ok is false only when the walker cannot move at all (an isolated
// node with no previous position). It is the single per-hop primitive
// behind RandomWalk, KRandomWalks, HybridSearch, RandomWalkDelivery and
// the content layer's replica probing, so their RNG consumption can never
// diverge.
func Step(f *graph.Frozen, cur, prev int, rng *xrand.RNG) (next int, ok bool) {
	next = f.RandomNeighborExcluding(cur, prev, rng)
	if next < 0 {
		if prev < 0 {
			return -1, false
		}
		next = prev // dead end: backtrack, the convention for walks on trees
	}
	return next, true
}

func errBadKMin(kMin int) error {
	return fmt.Errorf("%w: %d", ErrBadKMin, kMin)
}
