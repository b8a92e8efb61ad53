package des

import (
	"math"

	"scalefree/internal/xrand"
)

// Phase names of the failure sub-streams. Selection and onset are
// separate families so changing one fraction never reshuffles the other
// draws — the same property the latency model has.
const (
	failNodePhase   = "des.fail.node"   // per-node crash selection
	failNodeAtPhase = "des.fail.at"     // per-node crash onset
	failLinkPhase   = "des.fail.link"   // per-edge partition selection
	failLinkAtPhase = "des.fail.linkat" // per-edge partition onset
)

// FailPlan is the deterministic failure model: node crashes and link
// partitions drawn from Phases sub-streams. Whether a node (or edge)
// fails and when are pure functions of (Phases.Seed, Phases.Realization,
// node-or-edge id) — independent of message order and worker scheduling,
// so failure sweeps keep the pipeline's bit-for-bit determinism contract.
//
// A selected element goes down at an Exp(MTBF)-distributed time and never
// recovers. At t=0 everything is up; failures strike while the search is
// in flight, which is the regime the paper's robustness question lives
// in. The zero value disables all failures and changes nothing about a
// run. The fractions must lie in [0, 1] and, when either is positive,
// MTBF must be finite and > 0; sim.Scale.Validate checks the workload
// knobs every plan is built from.
type FailPlan struct {
	// NodeFrac is the fraction of nodes that crash (each node draws its
	// own selection, so the realized count is binomial around it).
	NodeFrac float64
	// LinkFrac is the fraction of edges that partition.
	LinkFrac float64
	// MTBF is the mean time before a selected element goes down
	// (exponential onset).
	MTBF float64
	// Phases roots the per-element derivation at (seed, realization).
	Phases xrand.Phases
}

// Enabled reports whether any failure class can fire.
func (p FailPlan) Enabled() bool { return p.NodeFrac > 0 || p.LinkFrac > 0 }

// linkRoots returns the derivation roots of the per-edge partition
// selection and onset draws. A run hoists them once, so edgeDown costs a
// send two folds instead of two phase-name hashes (as Latency.root does
// for the delay draw).
func (p FailPlan) linkRoots() (sel, at xrand.ChunkRoot) {
	return p.Phases.ChunkRoot(failLinkPhase), p.Phases.ChunkRoot(failLinkAtPhase)
}

// edgeDown reports whether edge {u, v} is partitioned at time t, given
// linkRoots. Orientation does not matter; the derivation goes through the
// same canonical edge id the latency model uses.
func (p FailPlan) edgeDown(sel, at xrand.ChunkRoot, u, v int32, t float64) bool {
	if p.LinkFrac <= 0 {
		return false
	}
	if u > v {
		u, v = v, u
	}
	key := uint64(u)<<32 | uint64(uint32(v))
	if sel.U01(key) >= p.LinkFrac {
		return false
	}
	return t >= -p.MTBF*math.Log1p(-at.U01(key))
}

// crashTimes materializes every node's crash time into an arena slice
// (+Inf for a node that never crashes), so the hot loop tests a crash
// with one load instead of two stream derivations per event.
func (s *Sim) crashTimes(p FailPlan, n int) []float64 {
	crash := s.floatBuf(n)
	sel, at := p.Phases.ChunkRoot(failNodePhase), p.Phases.ChunkRoot(failNodeAtPhase)
	for v := range crash {
		crash[v] = math.Inf(1)
		if p.NodeFrac > 0 && sel.U01(uint64(v)) < p.NodeFrac {
			crash[v] = -p.MTBF * math.Log1p(-at.U01(uint64(v)))
		}
	}
	return crash
}
