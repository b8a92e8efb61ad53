package sim

// Failure-sweep DES experiments (ISSUE 7 tentpole): the desflood/deskwalk
// scenarios re-run under deterministic fault injection — node crashes and
// link partitions scheduled by des.FailPlan from the realization's phase
// streams. Whether an element fails and when are pure functions of
// (seed, realization, element id), so the failure sweeps keep the
// pipeline's bit-for-bit determinism contract for any Workers (pinned by
// the DES schedule-invariance test). The frac=0 series doubles as the acceptance
// gate that a disabled plan changes nothing: it must coincide with the
// plain desflood coverage curve.

import (
	"fmt"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// desFailFracs resolves the failure-fraction series: an explicit positive
// Scale.DESFailFrac pins that single fraction, otherwise the spec sweeps
// no-failure plus three increasingly hostile regimes.
func (sc Scale) desFailFracs() []float64 {
	if sc.DESFailFrac > 0 {
		return []float64{sc.DESFailFrac}
	}
	return []float64{0, 0.10, 0.20, 0.30}
}

// desFailMTBF resolves the mean time before a selected element goes
// down. The default of 2 time units sits inside the flood's
// active window under the default unit-latency model (first arrivals at
// t≈1, deepest at t≈maxTTL), so failures strike while the search is in
// flight rather than before it starts or after it ends.
func (sc Scale) desFailMTBF() float64 {
	if sc.DESFailMTBF > 0 {
		return sc.DESFailMTBF
	}
	return 2
}

// failLabel renders a failure fraction the way the legends do.
func failLabel(frac float64) string {
	if frac == 0 {
		return "no failures"
	}
	return fmt.Sprintf("fail=%.0f%%", frac*100)
}

// DESFail measures search robustness under injected failures on the PA
// baseline overlays (m=2, no cutoff): flood coverage vs τ when a fraction
// of nodes crash mid-flight, the same when a fraction of links partition,
// and k-walker coverage vs steps under node crashes (a crashed node
// swallows its walkers — the DES analogue of the paper's robustness
// question). Crash onsets are Exp(MTBF)-distributed with no recovery, the
// worst case; all series share one seed and one desSweep, so the failure
// knob is isolated against identical topologies, sources, and latency
// draws, and each realization's topology is built once for all of them.
func DESFail(sc Scale, seed uint64) ([]Figure, error) {
	return desFail(sc, seed, paTopo(sc.NSearch, 2, gen.NoCutoff))
}

// desFail is DESFail over the overlays factory builds.
func desFail(sc Scale, seed uint64, factory topoFactory) ([]Figure, error) {
	base, jitter := sc.desLatency()
	mtbf := sc.desFailMTBF()
	maxTTL := sc.MaxTTLFlood
	steps := 10 * sc.MaxTTLNF
	notes := fmt.Sprintf("Exp(MTBF=%.2g) crash onsets, no recovery; per-edge latency %.2g + U[0,%.2g)", mtbf, base, jitter)
	nodeFig := Figure{
		ID: "desfail-node", Title: "DES flooding: coverage vs tau under node crashes (PA, m=2)",
		XLabel: "tau", YLabel: "number of hits", Notes: notes,
	}
	linkFig := Figure{
		ID: "desfail-link", Title: "DES flooding: coverage vs tau under link partitions (PA, m=2)",
		XLabel: "tau", YLabel: "number of hits", Notes: notes,
	}
	walkFig := Figure{
		ID: "desfail-kwalk", Title: "DES k-walkers (k=4): coverage vs steps under node crashes (PA, m=2)",
		XLabel: "steps", YLabel: "number of hits", Notes: notes,
	}
	// Per failure fraction: a node-crash flood, a link-partition flood and
	// a node-crash k-walk series, all over each realization's one build.
	// The floods' rows hold maxTTL+1 points, the walks' steps+1.
	var series []desSeries
	var figs []*Figure
	var labels []string
	for _, frac := range sc.desFailFracs() {
		flood := func(fig *Figure, plan func(ph xrand.Phases) des.FailPlan) {
			series = append(series, desSeries{fig.ID + " " + failLabel(frac), 1, maxTTL + 1,
				func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
					return sim.Flood(f, src, des.Config{MaxTTL: maxTTL, Latency: lat, Fail: plan(lat.Phases)}, rng)
				},
				func(m des.Metrics, rows [][]float64) {
					for h := 0; h <= maxTTL; h++ {
						rows[0][h] = float64(m.HitsWithin(h))
					}
				}})
			figs, labels = append(figs, fig), append(labels, failLabel(frac))
		}
		flood(&nodeFig, func(ph xrand.Phases) des.FailPlan {
			return des.FailPlan{NodeFrac: frac, MTBF: mtbf, Phases: ph}
		})
		flood(&linkFig, func(ph xrand.Phases) des.FailPlan {
			return des.FailPlan{LinkFrac: frac, MTBF: mtbf, Phases: ph}
		})
		series = append(series, desSeries{"desfail-kwalk " + failLabel(frac), 1, steps + 1,
			func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
				fail := des.FailPlan{NodeFrac: frac, MTBF: mtbf, Phases: lat.Phases}
				return sim.KWalk(f, src, 4, steps, des.Config{Latency: lat, Fail: fail}, rng)
			},
			func(m des.Metrics, rows [][]float64) {
				for h := 0; h <= steps; h++ {
					rows[0][h] = float64(m.HitsWithin(h))
				}
			}})
		figs, labels = append(figs, &walkFig), append(labels, failLabel(frac))
	}
	curves, err := desSweep(sc, seed, factory, base, jitter, series...)
	if err != nil {
		return nil, fmt.Errorf("desfail: %w", err)
	}
	for i, fig := range figs {
		s, err := aggregate(labels[i], blockRow(curves[i], 0), 1)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return []Figure{nodeFig, linkFig, walkFig}, nil
}
