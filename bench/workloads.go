package main

import (
	"fmt"

	"scalefree/internal/sim"
)

// workload is one named benchmark input: a registered spec at a fixed
// size, run the way cmd/experiments runs it. The size is part of the
// benchmark's definition: changing it resets every baseline.
type workload struct {
	name string
	spec string
	// scale and quick are the measured size and the ~50x smaller size the
	// self-test runs; scheduler knobs stay at their default 0.
	scale, quick sim.Scale
	// dist serves the spec's realizations from coord.RunJob to in-process
	// workers over loopback TCP before the local reduction.
	dist bool
	why  string
}

// sized overrides the fields a workload pins on top of a registered scale.
func sized(base sim.Scale, nSearch, realizations, sources int) sim.Scale {
	base.NSearch, base.Realizations, base.Sources = nSearch, realizations, sources
	return base
}

func dapaSized(base sim.Scale, nSubstrate, nOverlay, realizations, sources int) sim.Scale {
	base.NSubstrate, base.NOverlay, base.Realizations, base.Sources = nSubstrate, nOverlay, realizations, sources
	return base
}

// The sizes are the issue's sizes shrunk so that one child run takes 2-3 s
// on the 2-core reference host: the driver's cap (136 runs in 3420 s) and
// the need for a median over several runs leave no room for 10-20 s runs.
// Realization counts are even so that two cores split every series
// without a straggler, and records-* uses few, fat records because every
// eighth record is an fsync whose latency on a shared disk is the
// noisiest thing a run meets. The layer shares that define each workload
// were re-measured at these sizes (README.md).
var workloads = []workload{
	{
		name: "grow-hapa", spec: "fig9",
		scale: sized(sim.SmokeScale, 850, 4, 12),
		quick: sized(sim.SmokeScale, 150, 2, 4),
		why:   "fig9 NF on PA/CM/HAPA: gen.HAPABuild's hop/rejection loop dominates; search and journal do almost nothing",
	},
	{
		name: "grow-dapa", spec: "fig8",
		scale: dapaSized(sim.SmokeScale, 1600, 800, 4, 12),
		quick: dapaSized(sim.SmokeScale, 300, 150, 2, 4),
		why:   "fig8 FL on DAPA: GRN substrate plus gen.DAPABuild horizon floods, the other growth path; a HAPA-only fix must not show here",
	},
	{
		name: "sweep-cm", spec: "fig7",
		scale: sized(sim.XLScale, 20000, 2, 150),
		quick: sized(sim.XLScale, 1000, 2, 20),
		why:   "fig7 FL on CM: CSR-native build is small, search.Scratch.Flood over frozen snapshots dominates; growth fixes must not show",
	},
	{
		name: "des-flood", spec: "desflood",
		scale: sized(sim.PaperScale, 10000, 10, 25),
		quick: sized(sim.PaperScale, 500, 3, 5),
		why:   "desflood on PA: des.Sim.Flood event heap on the same graph.Frozen, so a graph/search change that costs the message path shows",
	},
	{
		name: "records-local", spec: "fig7",
		scale: sized(sim.SmokeScale, 400, 24, 500),
		quick: sized(sim.SmokeScale, 200, 4, 40),
		why:   "fig7 with tiny topologies and fat slot records: journal append+fsync and reduction; bypasses coord and p2p",
	},
	{
		name: "records-dist", spec: "fig7", dist: true,
		scale: sized(sim.SmokeScale, 400, 24, 500),
		quick: sized(sim.SmokeScale, 200, 4, 40),
		why:   "records-local served by coord.RunJob to in-process workers over loopback TCP: the JSON/base64 record path into Journal.Accept",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) size(quick bool) sim.Scale {
	if quick {
		return w.quick
	}
	return w.scale
}
