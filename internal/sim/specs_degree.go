package sim

// Degree-distribution experiments: Figs. 1-4.

import (
	"fmt"

	"scalefree/internal/gen"
	"scalefree/internal/stats"
)

// Fig1a regenerates Fig. 1(a): PA degree distributions without a hard
// cutoff for m = 1, 2, 3, with the fitted exponent recorded in Notes
// (the paper fits between -2.9 and -2.8 at N = 10⁵).
func Fig1a(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "fig1a",
		Title:  "PA degree distributions P(k), no hard cutoff",
		XLabel: "k", YLabel: "P(k)", LogX: true, LogY: true,
	}
	ms := []int{1, 2, 3}
	pb := &panelBatch[degreeRun]{}
	pb.panel(fig)
	for _, m := range ms {
		pb.add(degreeRun{fmt.Sprintf("fig1a m=%d", m), fmt.Sprintf("m=%d", m), paTopo(sc.NDegree, m, gen.NoCutoff), seed + uint64(m)})
	}
	dists, err := mergedDegreeDists(sc, pb.runs...)
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(ms))
	for i, m := range ms {
		if series[i], err = degreeSeries(pb.runs[i].label, dists[i]); err != nil {
			return nil, err
		}
		if fit, err := stats.FitPowerLawBinned(dists[i], 1.5, m, 0); err == nil {
			pb.figs[0].Notes += fmt.Sprintf("m=%d: gamma=%.2f±%.2f; ", m, fit.Gamma, fit.StdErr)
		}
	}
	return pb.file(series), nil
}

// Fig1b regenerates Fig. 1(b): PA degree distributions under hard cutoffs,
// with the exact (m, kc) legend of the paper.
func Fig1b(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "fig1b",
		Title:  "PA degree distributions P(k) for different hard cutoffs",
		XLabel: "k", YLabel: "P(k)", LogX: true, LogY: true,
		Notes: "distributions accumulate a spike at k=kc",
	}
	combos := []struct {
		m, kc int
	}{
		{1, gen.NoCutoff}, {1, 100}, {1, 40}, {1, 20}, {1, 10},
		{3, gen.NoCutoff}, {3, 100}, {2, 40}, {2, 20}, {2, 10},
	}
	pb := &panelBatch[degreeRun]{}
	pb.panel(fig)
	for i, c := range combos {
		pb.add(degreeRun{fmt.Sprintf("fig1b m=%d %s", c.m, cutoffLabel(c.kc)), fmt.Sprintf("m=%d, %s", c.m, cutoffLabel(c.kc)),
			paTopo(sc.NDegree, c.m, c.kc), seed + uint64(i)*101})
	}
	return degreePanels(sc, pb)
}

// Fig1c regenerates Fig. 1(c): the PA degree exponent γ versus the hard
// cutoff kc for m = 1, 2, 3. The paper shows γ degrading from ~3 toward
// ~1.9 as kc shrinks from 50 to 10.
func Fig1c(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "fig1c",
		Title:  "PA degree-distribution exponent vs hard cutoff",
		XLabel: "kc", YLabel: "gamma",
	}
	var curves []cutoffCurve
	for _, m := range []int{1, 2, 3} {
		curves = append(curves, cutoffCurve{fmt.Sprintf("m=%d", m),
			func(kc int) topoFactory { return paTopo(sc.NDegree, m, kc) }, seed + uint64(m)*7919})
	}
	series, err := exponentVsCutoff(sc, []int{10, 20, 30, 40, 50}, curves...)
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return []Figure{fig}, nil
}

// Fig2 regenerates Fig. 2: CM degree distributions for γ ∈ {2.2, 2.6, 3.0}
// (one panel each) with the paper's m/kc legend.
func Fig2(sc Scale, seed uint64) ([]Figure, error) {
	pb := &panelBatch[degreeRun]{}
	for pi, gamma := range []float64{2.2, 2.6, 3.0} {
		id := fmt.Sprintf("fig2%c", 'a'+pi)
		pb.panel(Figure{
			ID:     id,
			Title:  fmt.Sprintf("CM degree distributions, gamma=%.1f", gamma),
			XLabel: "k", YLabel: "P(k)", LogX: true, LogY: true,
		})
		for _, m := range []int{1, 2, 3} {
			for _, kc := range []int{gen.NoCutoff, 40, 10} {
				// The tag is load-bearing here: distinct (pi, m, kc) combos
				// can collide on the same derived seed (e.g. pi=0,m=1,kc=10
				// and pi=0,m=2,no-cutoff both give seed+20), so the journal
				// key needs the legend to tell them apart.
				pb.add(degreeRun{fmt.Sprintf("%s m=%d %s", id, m, cutoffLabel(kc)), fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc)),
					cmTopo(sc.NDegree, m, kc, gamma), seed + uint64(pi*100+m*10+kc)})
			}
		}
	}
	return degreePanels(sc, pb)
}

// Fig3 regenerates Fig. 3: HAPA degree distributions for panels
// (a) no cutoff, (b) kc=50, (c) kc=10, with series m ∈ {1,2,3} at two
// network sizes (the paper uses N = 10⁴ and 10⁵; we use NDegree/10 and
// NDegree).
func Fig3(sc Scale, seed uint64) ([]Figure, error) {
	pb := &panelBatch[degreeRun]{}
	sizes := []int{sc.NDegree / 10, sc.NDegree}
	for pi, kc := range []int{gen.NoCutoff, 50, 10} {
		fig := Figure{
			ID:     fmt.Sprintf("fig3%c", 'a'+pi),
			Title:  fmt.Sprintf("HAPA degree distributions, %s", cutoffLabel(kc)),
			XLabel: "k", YLabel: "P(k)", LogX: true, LogY: true,
		}
		if kc == gen.NoCutoff {
			fig.Notes = "star-like: super hubs of degree O(N)"
		}
		pb.panel(fig)
		for _, n := range sizes {
			for _, m := range []int{1, 2, 3} {
				pb.add(degreeRun{fmt.Sprintf("%s m=%d N=%d", fig.ID, m, n), fmt.Sprintf("m=%d, N=%d", m, n),
					hapaTopo(n, m, kc), seed + uint64(pi*1000+n+m)})
			}
		}
	}
	return degreePanels(sc, pb)
}

// Fig4 regenerates Fig. 4(a-f): DAPA degree distributions over
// τ_sub ∈ {2,4,6,8,10,20,50}, panels (m, kc) ∈ {1,3} × {none, 40, 10},
// on GRN substrates with k̄ = 10.
func Fig4(sc Scale, seed uint64) ([]Figure, error) {
	substrates, err := makeSubstrates(sc.NSubstrate, sc, seed^0x5eed)
	if err != nil {
		return nil, err
	}
	taus := []int{2, 4, 6, 8, 10, 20, 50}
	pb := &panelBatch[degreeRun]{}
	panel := 0
	for _, m := range []int{1, 3} {
		for _, kc := range []int{gen.NoCutoff, 40, 10} {
			id := fmt.Sprintf("fig4%c", 'a'+panel)
			pb.panel(Figure{
				ID:     id,
				Title:  fmt.Sprintf("DAPA degree distributions, m=%d, %s", m, cutoffLabel(kc)),
				XLabel: "k", YLabel: "P(k)", LogX: true, LogY: true,
				Notes: "small tau_sub: exponential; large tau_sub: power law",
			})
			panel++
			for _, tau := range taus {
				pb.add(degreeRun{fmt.Sprintf("%s tau=%d", id, tau), fmt.Sprintf("tau_sub=%d", tau),
					dapaTopo(substrates, sc.NOverlay, m, kc, tau), seed + uint64(panel*1000+tau)})
			}
		}
	}
	return degreePanels(sc, pb)
}

// Fig4g regenerates Fig. 4(g): the DAPA degree exponent versus the hard
// cutoff for m = 1, 2, 3 (the paper flags this data as very noisy with
// large error bars; τ_sub is set high so the overlay is in its power-law
// regime).
func Fig4g(sc Scale, seed uint64) ([]Figure, error) {
	substrates, err := makeSubstrates(sc.NSubstrate, sc, seed^0xdada)
	if err != nil {
		return nil, err
	}
	fig := Figure{
		ID:     "fig4g",
		Title:  "DAPA degree-distribution exponent vs hard cutoff (tau_sub=20)",
		XLabel: "kc", YLabel: "gamma",
		Notes: "paper: \"very noisy ... quite large error bars\"",
	}
	var curves []cutoffCurve
	for _, m := range []int{1, 2, 3} {
		curves = append(curves, cutoffCurve{fmt.Sprintf("m=%d", m),
			func(kc int) topoFactory { return dapaTopo(substrates, sc.NOverlay, m, kc, 20) }, seed + uint64(m)*104729})
	}
	series, err := exponentVsCutoff(sc, []int{10, 20, 30, 40, 50}, curves...)
	if err != nil {
		return nil, err
	}
	fig.Series = series
	return []Figure{fig}, nil
}
