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
// Flooding has two kernels on a Scratch. Flood is the two-queue BFS from
// one source; it also yields the discovery-ordered frontier and a target's
// depth, which the hybrid and ring strategies build on. FloodBatch floods
// up to 64 sources in one pass, one bit per source in a word per node, and
// returns the same per-TTL counts for each; the FL figures (Figs. 6–8)
// average such counts over many sources of one frozen topology, so their
// sweep cost is per batch rather than per source.
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
	// by nodes at depth < t (Messages[0] == 0).
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
// behind RandomWalk, KRandomWalks, HybridSearch, the delivery walkers, the
// load profiles, and the content layer's replica probing, so their RNG
// consumption can never diverge.
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

// Flood runs flooding search from src up to maxTTL hops (§V-A1). It is a
// breadth-first sweep with duplicate suppression: a node forwards the query
// on first receipt only, to every neighbor except the one that delivered
// it. The source forwards to all its neighbors.
//
// Hits[t] is the size of the t-hop ball around src; on a connected graph it
// approaches N as t grows (Figs. 6–8), while on CM with m=1 it saturates at
// the source's component size (§V-B1).
//
// Flood freezes g and allocates its working buffers per call; hot paths
// that search the same topology repeatedly should Freeze once and use
// Scratch.Flood instead.
func Flood(g *graph.Graph, src, maxTTL int) (Result, error) {
	var s Scratch
	return s.Flood(g.Freeze(), src, maxTTL)
}

// NormalizedFlood runs NF search from src (§V-A2). kMin is the network's
// minimum degree parameter: a node whose degree (excluding the reverse
// link) exceeds kMin forwards to kMin uniformly chosen neighbors other than
// the sender; a node at or below kMin forwards to all neighbors except the
// sender. The source forwards to min(kMin, deg) random neighbors.
//
// NF is randomized: the paper averages hits over many sources and
// realizations (internal/sim does the averaging).
//
// NormalizedFlood freezes g and allocates its working buffers per call;
// hot paths should Freeze once and use Scratch.NormalizedFlood instead.
func NormalizedFlood(g *graph.Graph, src, maxTTL, kMin int, rng *xrand.RNG) (Result, error) {
	var s Scratch
	return s.NormalizedFlood(g.Freeze(), src, maxTTL, kMin, rng)
}

// RandomWalk runs a random walk of exactly `steps` hops from src (§V-A3).
// At each hop the query moves to a uniformly random neighbor excluding the
// node it just came from; if the walker is at a dead end (its only
// neighbor is the previous node) it backtracks rather than dying, the
// standard convention for non-backtracking walks on trees. Hits[t] counts
// distinct nodes seen within the first t steps; Messages[t] == t.
//
// RandomWalk freezes g and allocates its working buffers per call; hot
// paths should Freeze once and use Scratch.RandomWalk instead.
func RandomWalk(g *graph.Graph, src, steps int, rng *xrand.RNG) (Result, error) {
	var s Scratch
	return s.RandomWalk(g.Freeze(), src, steps, rng)
}

// RandomWalkWithNFBudget reproduces the paper's RW normalization (§V-B):
// for each τ in 1..maxTTL, the RW "data point corresponding to that τ
// value is obtained by simulating a RW search with τ equal to the number
// of messages that were caused by an NF search using" the same τ. It runs
// one NF search to obtain the per-τ message budget, then a single long
// walk, reading hits at each budget point. Returns the RW result (indexed
// by NF-τ) and the NF result that defined the budget.
//
// RandomWalkWithNFBudget freezes g and allocates its working buffers per
// call; hot paths should Freeze once and use Scratch.RandomWalkWithNFBudget
// instead.
func RandomWalkWithNFBudget(g *graph.Graph, src, maxTTL, kMin int, rng *xrand.RNG) (rw, nf Result, err error) {
	var s Scratch
	return s.RandomWalkWithNFBudget(g.Freeze(), src, maxTTL, kMin, rng)
}
