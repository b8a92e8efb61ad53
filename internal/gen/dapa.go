package gen

import (
	"fmt"
	"math"
	"sync"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// DAPAConfig parameterizes Discover-and-Attempt Preferential Attachment
// (paper §IV-B, Appendix D).
type DAPAConfig struct {
	// NOverlay is the target overlay size N_O (paper: 10⁴ on a substrate
	// of N_S = 2·10⁴).
	NOverlay int
	// M is the number of stubs each joining peer tries to fill.
	M int
	// KC is the hard degree cutoff on overlay degree; NoCutoff (0)
	// disables it.
	KC int
	// TauSub is the local time-to-live τ_sub of the substrate discovery
	// flood: the joining node sees overlay peers at substrate distance
	// 1..TauSub. Small values make peers "shortsighted" and the overlay
	// exponential; large values recover a power law (Fig. 4).
	TauSub int
	// Seeds is the number of initial overlay nodes (fully connected to
	// each other); the paper uses 2. Defaults to 2 when zero.
	Seeds int
}

func (c DAPAConfig) validate(substrateN int) error {
	if c.M < 1 {
		return fmt.Errorf("%w: m=%d", ErrBadStubs, c.M)
	}
	if c.KC != NoCutoff && c.KC < c.M {
		return fmt.Errorf("%w: kc=%d < m=%d", ErrBadCutoff, c.KC, c.M)
	}
	if c.TauSub < 1 {
		return fmt.Errorf("gen: tau_sub must be >= 1, got %d", c.TauSub)
	}
	seeds := c.seeds()
	if c.NOverlay < seeds {
		return fmt.Errorf("%w: overlay target %d below seed count %d", ErrBadN, c.NOverlay, seeds)
	}
	if c.NOverlay > substrateN {
		return fmt.Errorf("%w: overlay target %d exceeds substrate size %d", ErrBadN, c.NOverlay, substrateN)
	}
	return nil
}

func (c DAPAConfig) seeds() int {
	if c.Seeds <= 0 {
		return 2
	}
	return c.Seeds
}

// Overlay is the result of DAPA generation: an overlay graph over dense
// overlay IDs plus the mapping back to substrate node IDs.
type Overlay struct {
	// G is the overlay topology; node IDs are 0..G.N()-1 in join order.
	G *graph.Graph
	// SubstrateID maps overlay node ID -> substrate node ID.
	SubstrateID []int
	// OverlayID maps substrate node ID -> overlay node ID, or -1 when the
	// substrate node never joined.
	OverlayID []int
}

// dapaAttemptBudget bounds the per-stub preferential rejection loop before
// an exact weighted draw over the remaining eligible horizon peers.
const dapaAttemptBudget = 10_000

// DAPABuild grows an overlay network on a substrate by Discover-and-Attempt
// Preferential Attachment (Appendix D):
//
//  1. Seed the overlay with Seeds random substrate nodes, fully connected.
//  2. Repeatedly pick a uniform random substrate node not yet in the
//     overlay; flood the substrate TauSub hops to discover the overlay
//     peers in its horizon (those below the cutoff).
//  3. If at most M peers were found, connect to all of them; otherwise
//     attach M distinct peers preferentially (probability proportional to
//     overlay degree, re-checking the cutoff as degrees grow).
//  4. A node joins the overlay iff it connected to at least one peer;
//     joined peers are never re-selected. Repeat until the overlay has
//     NOverlay peers.
//
// The loop stalls if the substrate has unreachable pockets (e.g. nodes
// outside the giant component can never see a peer). After
// 50·N_S consecutive selections without a successful join, DAPABuild
// returns the partial overlay wrapped in ErrStalled; Stats.Joined reports
// how far it got. With the paper's parameters (GRN, k̄=10) this does not
// happen.
//
// The substrate is read through its CSR snapshot, so when one substrate
// backs many overlays (the sim engine grows one overlay per series ×
// realization on a shared substrate) it is frozen once. The discovery
// floods — one bounded BFS per join attempt, the dominant cost of overlay
// growth — run on an epoch-marked two-queue frontier reused across every
// join, so a whole overlay build allocates a handful of buffers instead of
// one visited map per flood.
//
// The randomness splits into the "dapa.seeds" stream (seed-peer draws),
// the "dapa.select" stream (candidate draws), and the "dapa.attach"
// stream (preferential-attachment draws). The separation is what makes
// the horizon floods batchable: candidate nodes are a pure function of
// the select stream, and the TauSub-hop substrate ball around a candidate
// is a pure function of the immutable substrate, so with Build.Workers > 1
// the engine pre-draws a small batch of candidates and floods their balls
// in parallel while the join loop itself stays sequential. Each ball is
// filtered against the live overlay state only when its candidate is
// consumed, in draw order, so the overlay is bit-for-bit identical for
// every Workers value.
//
// With a Build.Arena, the build's whole working set is borrowed from it:
// the overlay graph and both ID maps are the ones the arena lends (Graph,
// Ints), and the flood marks and queues, the candidate balls and the
// horizon are arena scratch, so a lane's repeated builds allocate almost
// nothing. The returned Overlay then stays valid only until the arena's
// next build: freeze or use up ov.G, and drop the ID maps, first.
func DAPABuild(sub *graph.Frozen, cfg DAPAConfig, b Build) (*Overlay, Stats, error) {
	var st Stats
	if err := cfg.validate(sub.N()); err != nil {
		return nil, st, err
	}
	ns := sub.N()

	// Graph comes first: it takes back the ID maps the arena's previous
	// build borrowed. Exactly NOverlay peers join, so SubstrateID never
	// outgrows its capacity.
	arena := b.Arena
	ov := &Overlay{G: arena.Graph(0)}
	ov.OverlayID = arena.Ints(ns)
	ov.SubstrateID = arena.Ints(cfg.NOverlay)[:0]
	for i := range ov.OverlayID {
		ov.OverlayID[i] = -1
	}
	join := func(substrateNode int) int {
		id := ov.G.AddNode()
		ov.SubstrateID = append(ov.SubstrateID, substrateNode)
		ov.OverlayID[substrateNode] = id
		st.Joined++
		return id
	}

	// Seed peers: random distinct substrate nodes, fully connected in the
	// overlay (the paper connects its 2 seeds to each other).
	seedRNG := b.Phases.Stream("dapa.seeds")
	seeds := cfg.seeds()
	for len(ov.SubstrateID) < seeds {
		cand := seedRNG.Intn(ns)
		if ov.OverlayID[cand] < 0 {
			join(cand)
		}
	}
	for u := 0; u < seeds; u++ {
		for v := u + 1; v < seeds; v++ {
			mustEdge(ov.G, u, v)
		}
	}

	selectRNG := b.Phases.Stream("dapa.select")
	attachRNG := b.Phases.Stream("dapa.attach")

	// Candidate lookahead. The select stream has its own derivation, so the
	// batch size affects wall-clock only, never output.
	workers := b.workers()
	look := 1
	if workers > 1 {
		look = 2 * workers
	}
	// Per-worker discovery-flood scratches: an epoch-stamped visited array
	// plus the two-queue frontier each, reused across every join attempt
	// (bumping the epoch clears the visited set in O(1)). This mirrors the
	// sweep behind search.Scratch.Flood, which gen cannot import: the search
	// package's in-package tests import gen, so gen → search would be an
	// import cycle in the test binary. They are all taken here, before any
	// flood goroutine starts, because the arena serves one goroutine.
	scratches := make([]*dapaFlood, workers)
	for i := range scratches {
		scratches[i] = newDAPAFlood(ns, arena)
	}

	// A ball, and so a horizon, holds fewer than ns nodes: every buffer
	// below is sized once and never regrows.
	stallLimit := 50 * ns
	consecutiveFailures := 0
	horizon := arena.Grab(ns)[:0]
	candNodes := arena.Grab(look)
	candBalls := make([][]int32, look)
	for i := range candBalls {
		candBalls[i] = arena.Grab(ns)[:0]
	}
	hasBall := make([]bool, look)
	candPos, candLen := 0, 0
	var err error
	for st.Joined < cfg.NOverlay {
		if consecutiveFailures >= stallLimit {
			err = fmt.Errorf("%w: overlay stuck at %d/%d peers", ErrStalled, st.Joined, cfg.NOverlay)
			break
		}
		if candPos == candLen {
			// Refill: draw the next batch of candidates from the select
			// stream and flood the substrate ball of every candidate not
			// already in the overlay. Membership can only grow, so a
			// candidate skipped here is guaranteed to fail the membership
			// check at consumption and its ball is never needed.
			candLen = look
			for i := 0; i < candLen; i++ {
				candNodes[i] = int32(selectRNG.Intn(ns))
			}
			if candLen == 1 {
				hasBall[0] = false
				if ov.OverlayID[candNodes[0]] < 0 {
					candBalls[0] = scratches[0].ball(sub, int(candNodes[0]), cfg.TauSub, candBalls[0][:0])
					hasBall[0] = true
				}
			} else {
				var wg sync.WaitGroup
				wg.Add(workers)
				for gid := 0; gid < workers; gid++ {
					go func(gid int) {
						defer wg.Done()
						fs := scratches[gid]
						for i := gid; i < candLen; i += workers {
							hasBall[i] = false
							if ov.OverlayID[candNodes[i]] < 0 {
								candBalls[i] = fs.ball(sub, int(candNodes[i]), cfg.TauSub, candBalls[i][:0])
								hasBall[i] = true
							}
						}
					}(gid)
				}
				wg.Wait()
			}
			candPos = 0
		}
		i := candPos
		candPos++
		node := int(candNodes[i])
		if ov.OverlayID[node] >= 0 {
			consecutiveFailures++
			continue
		}

		// Discovery horizon: overlay peers within TauSub substrate hops,
		// below the cutoff (Appendix D lines 4-10), in breadth-first
		// discovery order. The ball was computed at refill; the overlay
		// filter runs now, against the live membership and degrees.
		st.HorizonQueries++
		if !hasBall[i] { // unreachable (membership never reverts); kept as a safety net
			candBalls[i] = scratches[0].ball(sub, node, cfg.TauSub, candBalls[i][:0])
		}
		horizon = horizon[:0]
		for _, v := range candBalls[i] {
			oid := ov.OverlayID[v]
			if oid >= 0 && cutoffOK(ov.G, oid, cfg.KC) {
				horizon = append(horizon, int32(oid))
			}
		}
		if len(horizon) == 0 {
			st.EmptyHorizons++
			consecutiveFailures++
			continue
		}

		id := join(node)
		consecutiveFailures = 0
		if len(horizon) <= cfg.M {
			// Appendix D lines 11-15: connect to every horizon peer.
			for _, peer := range horizon {
				mustEdge(ov.G, id, int(peer))
			}
			continue
		}
		dapaPreferential(ov.G, id, horizon, cfg, attachRNG, &st)
	}
	for _, fs := range scratches {
		fs.release(arena)
	}
	for _, ball := range candBalls {
		arena.Release(ball)
	}
	arena.Release(candNodes)
	arena.Release(horizon)
	return ov, st, err
}

// dapaFlood is one worker's discovery-flood scratch: the epoch-marked
// visited array and the two-queue frontier.
type dapaFlood struct {
	mark        []int32
	epoch       int32
	curq, nextq []int32
}

// newDAPAFlood takes a flood scratch over ns substrate nodes from arena
// (a nil arena allocates it). A frontier holds fewer than ns nodes, so
// the queues never regrow.
func newDAPAFlood(ns int, arena *graph.CSRArena) *dapaFlood {
	s := &dapaFlood{mark: arena.Grab(ns), curq: arena.Grab(ns)[:0], nextq: arena.Grab(ns)[:0]}
	clear(s.mark)
	return s
}

// release hands the scratch's buffers back to arena.
func (s *dapaFlood) release(arena *graph.CSRArena) {
	arena.Release(s.mark)
	arena.Release(s.curq)
	arena.Release(s.nextq)
}

// ball appends the substrate nodes within tau hops of node (excluding node
// itself) to out, in breadth-first discovery order — the order the horizon
// filter must observe. It depends only on the immutable substrate, so
// balls for different candidates can be computed concurrently on separate
// scratches.
func (s *dapaFlood) ball(sub *graph.Frozen, node, tau int, out []int32) []int32 {
	if s.epoch == math.MaxInt32 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	ep := s.epoch
	s.mark[node] = ep
	curq := append(s.curq[:0], int32(node))
	nextq := s.nextq[:0]
	for depth := 0; depth < tau && len(curq) > 0; depth++ {
		for _, u := range curq {
			for _, v := range sub.Neighbors(int(u)) {
				if s.mark[v] == ep {
					continue
				}
				s.mark[v] = ep
				nextq = append(nextq, v)
				out = append(out, v)
			}
		}
		curq, nextq = nextq, curq[:0]
	}
	s.curq, s.nextq = curq, nextq
	return out
}

// dapaPreferential fills M stubs of overlay node id from the horizon list
// by preferential attachment with rejection (Appendix D lines 17-29),
// normalizing acceptance by the horizon's total degree: the repeat-until
// structure makes the accepted peer distribution proportional to degree
// among eligible peers regardless of the normalizer, so the horizon total
// is used for speed (the prose of §IV-B describes exactly this
// normalization).
func dapaPreferential(g *graph.Graph, id int, horizon []int32, cfg DAPAConfig, rng *xrand.RNG, st *Stats) {
	kTotal := 0
	for _, p := range horizon {
		kTotal += g.Degree(int(p))
	}
	for j := 0; j < cfg.M; j++ {
		placed := false
		for attempt := 0; attempt < dapaAttemptBudget; attempt++ {
			st.Attempts++
			peer := int(horizon[rng.Intn(len(horizon))])
			if g.HasEdge(id, peer) || !cutoffOK(g, peer, cfg.KC) {
				continue
			}
			if kTotal > 0 && rng.Float64() >= float64(g.Degree(peer))/float64(kTotal) {
				continue
			}
			mustEdge(g, id, peer)
			kTotal++
			placed = true
			break
		}
		if placed {
			continue
		}
		// Exact weighted draw over whatever remains eligible.
		var cands []int
		var weights []float64
		for _, p := range horizon {
			if u := int(p); !g.HasEdge(id, u) && cutoffOK(g, u, cfg.KC) {
				cands = append(cands, u)
				weights = append(weights, float64(g.Degree(u)))
			}
		}
		idx := rng.Choose(weights)
		if idx < 0 {
			st.UnfilledStubs += cfg.M - j
			return
		}
		st.Fallbacks++
		mustEdge(g, id, cands[idx])
		kTotal++
	}
}
