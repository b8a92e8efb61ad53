package sim

// Table I, Table II, and the messaging-complexity study of §V-B2.

import (
	"fmt"
	"math"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// Table1 verifies the diameter-scaling regimes of Table I empirically: the
// mean shortest-path distance d(N) is measured for each regime's canonical
// generator at several sizes, and the growth is compared against the
// predicted functional forms.
//
//	d ~ ln ln N   for 2 < gamma < 3 (CM, m >= 1)  — "ultra-small"
//	d ~ lnN/lnlnN for gamma = 3, m >= 2 (PA)
//	d ~ ln N      for gamma = 3, m = 1 (PA tree)
//	d ~ ln N      for gamma > 3 (CM)
//
// Each regime becomes a series of (N, measured d) points; Notes report the
// measured growth ratio d(N_max)/d(N_min) next to each prediction's ratio,
// which is how the ordering of regimes is checked.
func Table1(sc Scale, seed uint64) ([]Figure, error) {
	sizes := []int{sc.NSearch / 4, sc.NSearch, sc.NSearch * 4}
	regimes := []struct {
		label string
		ref   func(n float64) float64
		mk    func(n int) topoFactory
	}{
		{
			label: "gamma in (2,3), m>=1 (CM 2.2): d ~ lnlnN",
			ref:   func(n float64) float64 { return math.Log(math.Log(n)) },
			mk:    func(n int) topoFactory { return cmTopo(n, 2, gen.NoCutoff, 2.2) },
		},
		{
			label: "gamma=3, m>=2 (PA m=2): d ~ lnN/lnlnN",
			ref:   func(n float64) float64 { return math.Log(n) / math.Log(math.Log(n)) },
			mk:    func(n int) topoFactory { return paTopo(n, 2, gen.NoCutoff) },
		},
		{
			label: "gamma=3, m=1 (PA tree): d ~ lnN",
			ref:   func(n float64) float64 { return math.Log(n) },
			mk:    func(n int) topoFactory { return paTopo(n, 1, gen.NoCutoff) },
		},
		{
			label: "gamma>3 (CM 3.5, m=2): d ~ lnN",
			ref:   func(n float64) float64 { return math.Log(n) },
			mk:    func(n int) topoFactory { return cmTopo(n, 2, gen.NoCutoff, 3.5) },
		},
	}
	fig := Figure{
		ID:     "table1",
		Title:  "Table I: scale-free network diameter behavior (measured mean distance)",
		XLabel: "N", YLabel: "mean shortest-path distance", LogX: true,
	}
	pathPairs := sc.PathPairs
	if pathPairs == 0 {
		pathPairs = 2000
	}
	// One build per (regime, size); a realization's row: mean distance,
	// landmark lower bound.
	var builds []blockBuild[[]float64, []float64, []float64]
	for ri, reg := range regimes {
		for _, n := range sizes {
			tag := fmt.Sprintf("table1 %s N=%d", reg.label, n)
			builds = append(builds, shared(tag, seed+uint64(ri*1000+n), func(r int, b *builder) ([]float64, error) {
				f, err := reg.mk(n)(r, b)
				if err != nil {
					return nil, err
				}
				// Measure within the giant component: CM m=1-adjacent
				// regimes can have small detached parts. Both the giant
				// extraction and the distance sampling run on the CSR
				// snapshot (CM realizations never materialize a Graph).
				sub, _ := f.InducedFrozen(f.GiantComponent())
				if sc.PathLandmarks > 0 {
					// Landmark estimator (graph.LandmarkPathStats): L hub
					// BFS passes price pathPairs sampled pairs by triangle
					// inequality — O(L·(V+E)) instead of 40 full BFS
					// sweeps, which is what lets N=10⁶ into this table.
					ls := sub.LandmarkPathStats(minInt(sc.PathLandmarks, sub.N()), pathPairs, b.rng)
					return []float64{ls.MeanDistance, ls.MeanLowerBound}, nil
				}
				return []float64{sub.SamplePathStats(minInt(40, sub.N()), b.rng).MeanDistance, 0}, nil
			}, journaled[[]float64](tag, oneRow(2), nil)))
		}
	}
	rows, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	for ri, reg := range regimes {
		s := Series{Label: reg.label}
		// Lower-bound accounting for the landmark estimator: mean of the
		// per-realization triangle-inequality floors at the largest size.
		var lower float64
		for ni, n := range sizes {
			k := ri*len(sizes) + ni
			mean, err := aggregate(builds[k].name, rows[k][0], 0)
			if err != nil {
				return nil, err
			}
			lower = mean.Points[1].Y // the last size's survives the loop
			s.Points = append(s.Points, mean.at(0, float64(n)))
		}
		fig.Series = append(fig.Series, s)
		nLo, nHi := float64(sizes[0]), float64(sizes[len(sizes)-1])
		measured := s.Points[len(s.Points)-1].Y / s.Points[0].Y
		predicted := reg.ref(nHi) / reg.ref(nLo)
		fig.Notes += fmt.Sprintf("%s: growth measured %.2f vs predicted %.2f; ", reg.label, measured, predicted)
		if sc.PathLandmarks > 0 {
			fig.Notes += fmt.Sprintf("(landmark bracket at N=%d: [%.2f, %.2f]); ",
				sizes[len(sizes)-1], lower, s.Points[len(s.Points)-1].Y)
		}
	}
	if sc.PathLandmarks > 0 {
		fig.Notes += fmt.Sprintf("distances estimated by hub routing over %d landmark BFS passes and %d sampled pairs per realization (upper bound; true mean within each bracket)", sc.PathLandmarks, pathPairs)
	}
	return []Figure{fig}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Table2 reproduces Table II: which mechanisms require global topology
// information at join time. The data is structural (a property of the
// algorithms); the experiment renders it and cross-checks that the
// implementations' declared locality matches the table.
func Table2(_ Scale, _ uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "table2",
		Title:  "Table II: comparison of network generation procedures",
		XLabel: "procedure", YLabel: "usage of global information",
	}
	for _, m := range []gen.Model{gen.ModelPA, gen.ModelCM, gen.ModelHAPA, gen.ModelDAPA} {
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("%-5s -> %s", string(m), gen.ModelLocality[m]),
		})
	}
	fig.Notes = "PA and CM need the full degree table; HAPA walks existing links (partial); DAPA uses only the tau_sub-hop substrate horizon (none)."
	return []Figure{fig}, nil
}

// Messaging implements the §V-B2 messaging-complexity study, whose results
// were omitted from the paper for space. It measures the mean number of
// messages per search request for NF and RW (with the NF budget they are
// equal by construction, so RW is reported as messages per *distinct
// discovered node*, the granularity metric the section discusses):
//
//   - "In all cases, NF performs better than RW consistently" — fewer
//     messages per discovered node;
//   - "the difference ... diminishes as τ increases for weak
//     connectedness, i.e. m = 1";
//   - "the effect of hard cutoffs is negative in terms of messaging
//     complexity ... very minimal and negligible".
//
// Each (m, kc) topology is built and swept once per realization: the three
// curves come from one fused NF+RW sweep (nfRWBuild).
func Messaging(sc Scale, seed uint64) ([]Figure, error) {
	figMsgs := Figure{
		ID:     "messaging-per-request",
		Title:  "Messages per search request (NF) on PA topologies",
		XLabel: "tau", YLabel: "messages",
		LogY: true,
	}
	figEff := Figure{
		ID:     "messaging-per-hit",
		Title:  "Messages per discovered node: NF vs RW on PA topologies",
		XLabel: "tau", YLabel: "messages / hits",
	}
	var bases []string
	var builds []blockBuild[*graph.Frozen, [][]float64, [][]float64]
	for _, m := range []int{1, 3} {
		for _, kc := range []int{10, gen.NoCutoff} {
			base := fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc))
			bases = append(bases, base)
			builds = append(builds, nfRWBuild(sc, seed+uint64(m*100+kc), "messaging "+base, paTopo(sc.NSearch, m, kc), m))
		}
	}
	means, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	for k, base := range bases {
		var s [3]Series // NF messages, NF hits, RW hits
		for c, alg := range []string{"NF", "NF", "RW"} {
			if s[c], err = aggregate(alg+" "+base, blockRow(means[k][0], c), 1); err != nil {
				return nil, err
			}
		}
		figMsgs.Series = append(figMsgs.Series, s[0])
		figEff.Series = append(figEff.Series, perHit("NF "+base, s[0], s[1]), perHit("RW "+base, s[0], s[2]))
	}
	return []Figure{figMsgs, figEff}, nil
}

// nfRWBuild sweeps NF and the random walk normalized to its budget (§V-B)
// with one RandomWalkWithNFBudget call per source, on the realizations
// factory builds from seed: curves 0, 1 and 2 of its one series are NF
// messages, NF hits and RW hits at τ = 0..sc.MaxTTLNF. The kernel's NF
// result is the one NormalizedFlood returns on the same (seed, r, s)
// stream, so each curve equals its single-algorithm sweep bit for bit. tag
// names the series in the journal and prefixes the build's errors.
func nfRWBuild(sc Scale, seed uint64, tag string, factory topoFactory, kMin int) blockBuild[*graph.Frozen, [][]float64, [][]float64] {
	return minted(shared(tag, seed, factory, sweepSeries(sc, recSweepSlots, tag, 3, sc.MaxTTLNF+1, func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error {
		return sw.eachSource(r, f, rows, 3, func(_ int, scratch *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error {
			rw, nf, err := scratch.RandomWalkWithNFBudget(f, src, sc.MaxTTLNF, kMin, rng)
			if err != nil {
				return err
			}
			for t := range curves[0] {
				curves[0][t] = float64(nf.MessagesAt(t))
				curves[1][t] = float64(nf.HitsAt(t))
				curves[2][t] = float64(rw.HitsAt(t))
			}
			return nil
		})
	})))
}

// perHit divides a message series by a hits series pointwise.
func perHit(label string, msgs, hits Series) Series {
	out := Series{Label: label}
	for i := range msgs.Points {
		if i >= len(hits.Points) || hits.Points[i].Y == 0 {
			continue
		}
		out.Points = append(out.Points, Point{
			X: msgs.Points[i].X,
			Y: msgs.Points[i].Y / hits.Points[i].Y,
		})
	}
	return out
}
