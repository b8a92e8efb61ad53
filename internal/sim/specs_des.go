package sim

// Message-level DES experiments (ROADMAP item 2): the same sweeps the CSR
// kernels run as algorithmic traversals, re-expressed as messages in
// flight through internal/des — which makes per-edge latency, message
// loss, and duplicate traffic measurable scenario knobs instead of
// inexpressible ones. The specs ride the same build/sweep pipeline as
// every other figure (sweepSeries): each realization's topology and its
// per-edge latency model derive from the (seed, realization, phase)
// streams, each source draws from its (seed, realization, source) stream,
// and results land in per-index slots — so DES figures are bit-for-bit
// identical for any Workers, pinned by the DES determinism tests. With
// zero latency and loss the desflood/deskwalk hits curves coincide exactly
// with the CSR flood/k-walk sweeps (the equivalence tests pin that too).

import (
	"fmt"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// desLatency resolves the Scale latency knobs: both zero selects the
// default unit-delay model (Base 1, Jitter 1), the generic "heterogeneous
// links around one time unit" scenario. cmd/experiments' -latency-base /
// -latency-jitter flags override.
func (sc Scale) desLatency() (base, jitter float64) {
	if sc.DESLatencyBase == 0 && sc.DESLatencyJitter == 0 {
		return 1, 1
	}
	return sc.DESLatencyBase, sc.DESLatencyJitter
}

// desLossRates resolves the loss-rate series: an explicit positive
// Scale.DESLoss runs that single rate, otherwise the specs sweep lossless
// plus two lossy regimes.
func (sc Scale) desLossRates() []float64 {
	if sc.DESLoss > 0 {
		return []float64{sc.DESLoss}
	}
	return []float64{0, 0.02, 0.10}
}

// desSeries is one knob series of a DES sweep. run executes source src's
// simulation with the source's stream; sample extracts the nCurves curves
// of rowLen points from the run's Metrics, into zeroed rows, before the next
// simulation invalidates them.
//
// tag names the series in the journal. It is load-bearing here: the DES
// specs deliberately share one engine seed, and so one build, across their
// loss/failure series to isolate the knob against identical topologies, so
// the seed alone cannot key a checkpoint — the tag carries the knob.
type desSeries struct {
	tag             string
	nCurves, rowLen int
	run             func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error)
	sample          func(m des.Metrics, rows [][]float64)
}

// desSweep is a DES spec's one batch, one build of sweepSeries: each
// realization's topology is built once and every series runs one
// simulation per source on the shard's pooled des.Sim, over a per-edge
// latency model rooted at the same (seed, realization) phases the build
// stage derives the topology from. It returns, per series and realization,
// the curves' mean rows (blockRow picks one curve).
func desSweep(sc Scale, seed uint64, factory topoFactory, base, jitter float64, series ...desSeries) ([][][][]float64, error) {
	sweeps := make([]blockSeries[*graph.Frozen, [][]float64, [][]float64], len(series))
	for i, s := range series {
		sweeps[i] = sweepSeries(sc, recDESSlots, s.tag, s.nCurves, s.rowLen, func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error {
			lat := des.Latency{Base: base, Jitter: jitter, Phases: xrand.Phases{Seed: seed, Realization: uint64(r)}}
			return sw.eachSource(r, f, rows, s.nCurves, func(shard int, _ *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error {
				m, err := s.run(sw.Sim(shard), f, lat, src, rng)
				if err == nil {
					s.sample(m, curves)
				}
				return err
			})
		})
	}
	means, err := realizationBatch(sc, minted(shared("", seed, factory, sweeps...)))
	if err != nil {
		return nil, err
	}
	return means[0], nil
}

// lossLabel renders a loss rate the way the DES legends do.
func lossLabel(loss float64) string {
	if loss == 0 {
		return "lossless"
	}
	return fmt.Sprintf("loss=%.0f%%", loss*100)
}

// DESFlood measures TTL flooding as messages in flight on PA overlays
// (m=2, no cutoff, the paper's baseline search topology): coverage vs τ
// under message loss, the latency-vs-hops curve (mean first-receipt
// arrival time per hop distance), and the cumulative message cost. All
// loss series share one seed and one desSweep, so the loss knob is isolated
// against identical topologies and sources, and each realization's topology
// is built once for all of them.
func DESFlood(sc Scale, seed uint64) ([]Figure, error) {
	return desFlood(sc, seed, paTopo(sc.NSearch, 2, gen.NoCutoff))
}

// desFlood is DESFlood over the overlays factory builds.
func desFlood(sc Scale, seed uint64, factory topoFactory) ([]Figure, error) {
	base, jitter := sc.desLatency()
	maxTTL := sc.MaxTTLFlood
	hitsFig := Figure{
		ID: "desflood-hits", Title: "DES flooding: coverage vs tau under message loss (PA, m=2)",
		XLabel: "tau", YLabel: "number of hits",
	}
	timeFig := Figure{
		ID: "desflood-time", Title: "DES flooding: mean first-receipt time vs hop (PA, m=2)",
		XLabel: "hop", YLabel: "mean arrival time",
		Notes: fmt.Sprintf("per-edge latency %.2g + U[0,%.2g); hops no source reached plot as 0", base, jitter),
	}
	msgFig := Figure{
		ID: "desflood-msgs", Title: "DES flooding: cumulative messages vs tau under message loss (PA, m=2)",
		XLabel: "tau", YLabel: "messages sent",
	}
	// One series per loss rate, all over each realization's one build.
	losses := sc.desLossRates()
	series := make([]desSeries, len(losses))
	for i, loss := range losses {
		series[i] = desSeries{"desflood " + lossLabel(loss), 3, maxTTL + 1,
			func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
				return sim.Flood(f, src, des.Config{MaxTTL: maxTTL, Latency: lat, Loss: loss}, rng)
			},
			func(m des.Metrics, rows [][]float64) {
				hits, sent := 0, 0
				for h := 0; h <= maxTTL; h++ {
					hits += m.HitsByHop[h]
					rows[0][h] = float64(hits)
					if m.HitsByHop[h] > 0 {
						rows[1][h] = m.TimeByHop[h] / float64(m.HitsByHop[h])
					}
					rows[2][h] = float64(sent)
					if h < maxTTL {
						sent += m.SentByHop[h]
					}
				}
			}}
	}
	curves, err := desSweep(sc, seed, factory, base, jitter, series...)
	if err != nil {
		return nil, fmt.Errorf("desflood: %w", err)
	}
	for i, loss := range losses {
		label := lossLabel(loss)
		for c, fig := range []*Figure{&hitsFig, &timeFig, &msgFig} {
			s, err := aggregate(label, blockRow(curves[i], c), 1)
			if err != nil {
				return nil, fmt.Errorf("desflood %s: %w", label, err)
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return []Figure{hitsFig, timeFig, msgFig}, nil
}

// DESKWalk measures k parallel random walkers as messages in flight on
// the same PA overlays: coverage vs steps for k ∈ {1, 4, 16} under each
// loss rate (a lost copy kills its walker — the failure mode the CSR
// k-walk kernel cannot express). Like DESFlood's, its (k, loss) series
// share one seed and one build per realization.
func DESKWalk(sc Scale, seed uint64) ([]Figure, error) {
	return desKWalk(sc, seed, paTopo(sc.NSearch, 2, gen.NoCutoff))
}

// desKWalk is DESKWalk over the overlays factory builds.
func desKWalk(sc Scale, seed uint64, factory topoFactory) ([]Figure, error) {
	base, jitter := sc.desLatency()
	steps := 10 * sc.MaxTTLNF
	fig := Figure{
		ID: "deskwalk-hits", Title: "DES k-walkers: coverage vs steps under message loss (PA, m=2)",
		XLabel: "steps", YLabel: "number of hits",
	}
	// One series per (k, loss rate), all over each realization's one build.
	var series []desSeries
	var labels []string
	for _, k := range []int{1, 4, 16} {
		for _, loss := range sc.desLossRates() {
			series = append(series, desSeries{fmt.Sprintf("deskwalk k=%d %s", k, lossLabel(loss)), 1, steps + 1,
				func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
					return sim.KWalk(f, src, k, steps, des.Config{Latency: lat, Loss: loss}, rng)
				},
				func(m des.Metrics, rows [][]float64) {
					hits := 0
					for h := 0; h <= steps; h++ {
						hits += m.HitsByHop[h]
						rows[0][h] = float64(hits)
					}
				}})
			labels = append(labels, fmt.Sprintf("k=%d, %s", k, lossLabel(loss)))
		}
	}
	curves, err := desSweep(sc, seed, factory, base, jitter, series...)
	if err != nil {
		return nil, fmt.Errorf("deskwalk: %w", err)
	}
	for i, label := range labels {
		s, err := aggregate(label, blockRow(curves[i], 0), 1)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return []Figure{fig}, nil
}
