package des

import (
	"fmt"
	"math"

	"scalefree/internal/xrand"
)

// ErrBadFail flags an invalid failure plan.
var ErrBadFail = fmt.Errorf("des: invalid failure plan")

// Phase names of the failure sub-streams. Selection and onset are
// separate families so changing one fraction never reshuffles the other
// draws — the same property the latency model has.
const (
	failNodePhase   = "des.fail.node"   // per-node crash selection
	failNodeAtPhase = "des.fail.at"     // per-node crash onset
	failLinkPhase   = "des.fail.link"   // per-edge partition selection
	failLinkAtPhase = "des.fail.linkat" // per-edge partition onset
)

// FailPlan is the deterministic failure model: node crash/recovery and
// link-partition down-windows drawn from Phases sub-streams. Whether a
// node (or edge) fails and when are pure functions of
// (Phases.Seed, Phases.Realization, node-or-edge id) — independent of
// message order and worker scheduling, so failure sweeps keep the
// pipeline's bit-for-bit determinism contract.
//
// A selected element's down-window starts at an Exp(MTBF)-distributed
// time and lasts Downtime (forever when Downtime <= 0, i.e. crash
// without recovery). At t=0 everything is up; failures strike while the
// search is in flight, which is the regime the paper's robustness
// question lives in. The zero value disables all failures and changes
// nothing about a run.
type FailPlan struct {
	// NodeFrac is the fraction of nodes that crash (each node draws its
	// own selection, so the realized count is binomial around it).
	NodeFrac float64
	// LinkFrac is the fraction of edges that partition.
	LinkFrac float64
	// MTBF is the mean time before a selected element's down-window
	// starts (exponential onset). Required > 0 when any fraction is.
	MTBF float64
	// Downtime is the length of each down-window; <= 0 means the element
	// never recovers.
	Downtime float64
	// Phases roots the per-element derivation at (seed, realization).
	Phases xrand.Phases
}

// Enabled reports whether any failure class can fire.
func (p FailPlan) Enabled() bool { return p.NodeFrac > 0 || p.LinkFrac > 0 }

func (p FailPlan) check() error {
	if !(p.NodeFrac >= 0 && p.NodeFrac <= 1) {
		return fmt.Errorf("%w: node fraction %v out of [0, 1]", ErrBadFail, p.NodeFrac)
	}
	if !(p.LinkFrac >= 0 && p.LinkFrac <= 1) {
		return fmt.Errorf("%w: link fraction %v out of [0, 1]", ErrBadFail, p.LinkFrac)
	}
	if p.Enabled() && !(p.MTBF > 0) {
		return fmt.Errorf("%w: MTBF %v must be > 0 when failures are enabled", ErrBadFail, p.MTBF)
	}
	if math.IsNaN(p.Downtime) {
		return fmt.Errorf("%w: downtime is NaN", ErrBadFail)
	}
	return nil
}

// nodeWindow returns the down-window [start, end) of node v, given the
// selection and onset roots hoisted by nodeWindows; a node that never
// crashes gets [+Inf, +Inf).
func (p FailPlan) nodeWindow(sel, at xrand.ChunkRoot, v int) (start, end float64) {
	inf := math.Inf(1)
	if sel.U01(v) >= p.NodeFrac {
		return inf, inf
	}
	start = -p.MTBF * math.Log1p(-at.U01(v))
	end = inf
	if p.Downtime > 0 {
		end = start + p.Downtime
	}
	return start, end
}

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
	key := int(uint64(u)<<32 | uint64(uint32(v)))
	if sel.U01(key) >= p.LinkFrac {
		return false
	}
	start := -p.MTBF * math.Log1p(-at.U01(key))
	if t < start {
		return false
	}
	return p.Downtime <= 0 || t < start+p.Downtime
}

// nodeWindows materializes every node's down-window into two arena
// slices (start, end), so the hot loop tests a crash with two loads
// instead of two stream derivations per event.
func (s *Sim) nodeWindows(p FailPlan, n int) (starts, ends []float64) {
	starts = s.floatBuf(n)
	ends = s.floatBuf(n)
	if p.NodeFrac <= 0 {
		inf := math.Inf(1)
		for i := range starts {
			starts[i] = inf
			ends[i] = inf
		}
		return starts, ends
	}
	sel, at := p.Phases.ChunkRoot(failNodePhase), p.Phases.ChunkRoot(failNodeAtPhase)
	for v := 0; v < n; v++ {
		starts[v], ends[v] = p.nodeWindow(sel, at, v)
	}
	return starts, ends
}
