package sim

// Search-efficiency experiments: Figs. 6-12. Every search experiment runs
// on topologies of NSearch (or NOverlay) nodes, the paper's 10⁴ scale.

import (
	"fmt"

	"scalefree/internal/gen"
)

// Fig6 regenerates Fig. 6: flooding hits vs τ on PA (panel a) and HAPA
// (panel b), series m ∈ {1,2,3} × kc ∈ {10,50,none}.
func Fig6(sc Scale, seed uint64) ([]Figure, error) {
	panels := []struct {
		id, title string
		mk        func(m, kc int) topoFactory
	}{
		{"fig6a", "FL results for PA model", func(m, kc int) topoFactory { return paTopo(sc.NSearch, m, kc) }},
		{"fig6b", "FL results for HAPA model", func(m, kc int) topoFactory { return hapaTopo(sc.NSearch, m, kc) }},
	}
	pb := &panelBatch[searchRun]{}
	for pi, p := range panels {
		pb.panel(Figure{ID: p.id, Title: p.title, XLabel: "tau", YLabel: "number of hits"})
		for _, m := range []int{1, 2, 3} {
			for _, kc := range []int{10, 50, gen.NoCutoff} {
				pb.add(searchRun{
					label:   fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc)),
					factory: p.mk(m, kc),
					seed:    seed + uint64(pi*10000+m*100+kc),
					alg:     algFL, maxTTL: sc.MaxTTLFlood,
				})
			}
		}
	}
	return searchPanels(sc, pb)
}

// Fig7 regenerates Fig. 7: flooding hits vs τ on CM for
// γ ∈ {2.2, 2.6, 3.0} (one panel each), series m ∈ {1,2,3} ×
// kc ∈ {10,40,none}. The m=1 panels saturate below N because CM with m=1
// is disconnected (§V-B1).
func Fig7(sc Scale, seed uint64) ([]Figure, error) {
	pb := &panelBatch[searchRun]{}
	for pi, gamma := range []float64{2.2, 2.6, 3.0} {
		pb.panel(Figure{
			ID:     fmt.Sprintf("fig7%c", 'a'+pi),
			Title:  fmt.Sprintf("FL results for CM, gamma=%.1f", gamma),
			XLabel: "tau", YLabel: "number of hits",
			Notes: "m=1: hits saturate at the giant-component size",
		})
		for _, m := range []int{1, 2, 3} {
			for _, kc := range []int{10, 40, gen.NoCutoff} {
				pb.add(searchRun{
					label:   fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc)),
					factory: cmTopo(sc.NSearch, m, kc, gamma),
					seed:    seed + uint64(pi*10000+m*100+kc),
					alg:     algFL, maxTTL: sc.MaxTTLFlood,
				})
			}
		}
	}
	return searchPanels(sc, pb)
}

// Fig8 regenerates Fig. 8: flooding hits vs τ on DAPA overlays, one panel
// per m ∈ {1,2,3}, series kc ∈ {10,50,none} × τ_sub ∈ {2,4,10,50}. The
// paper sweeps τ to 100 because small-τ_sub overlays have large diameters.
func Fig8(sc Scale, seed uint64) ([]Figure, error) {
	substrates, err := makeSubstrates(sc.NSubstrate, sc, seed^0xf18)
	if err != nil {
		return nil, err
	}
	maxTTL := 3 * sc.MaxTTLFlood
	pb := &panelBatch[searchRun]{}
	for _, m := range []int{1, 2, 3} {
		fig := Figure{
			ID:     fmt.Sprintf("fig8%c", 'a'+m-1),
			Title:  fmt.Sprintf("FL results for DAPA model, m=%d", m),
			XLabel: "tau", YLabel: "number of hits",
		}
		if m == 1 {
			fig.Notes = "paper: hard cutoffs improve FL under weak connectedness; " +
				"this reproduction measures the opposite ordering (documented deviation, see claims)"
		}
		pb.panel(fig)
		for _, kc := range []int{10, 50, gen.NoCutoff} {
			for _, tau := range []int{2, 4, 10, 50} {
				pb.add(searchRun{
					label:   fmt.Sprintf("%s, tau_sub=%d", cutoffLabel(kc), tau),
					factory: dapaTopo(substrates, sc.NOverlay, m, kc, tau),
					seed:    seed + uint64(m*100000+kc*100+tau),
					alg:     algFL, maxTTL: maxTTL,
				})
			}
		}
	}
	return searchPanels(sc, pb)
}

// nfRwPanels builds the six panels shared by Figs. 9 and 11 (NF and RW on
// PA, CM, HAPA): top row m=1, bottom row m=2 and m=3 combined, columns
// PA / CM / HAPA, with the paper's kc legends.
func nfRwPanels(sc Scale, seed uint64, alg algKind, figBase string, titleAlg string) ([]Figure, error) {
	paCutoffs := []int{10, 20, 40, 60, 80, 100, 200}
	cmCutoffs := []int{10, 40, gen.NoCutoff}
	pb := &panelBatch[searchRun]{}
	panel := func(id, title string, ms []int) {
		pb.panel(Figure{ID: id, Title: fmt.Sprintf("%s results for %s, m=%v", titleAlg, title, ms), XLabel: "tau", YLabel: "number of hits", LogY: len(ms) > 1})
	}

	// Panels (a), (d): PA.
	for i, ms := range [][]int{{1}, {2, 3}} {
		id := figBase + string(rune('a'+3*i))
		panel(id, "PA model", ms)
		for _, m := range ms {
			for _, kc := range paCutoffs {
				pb.add(searchRun{
					label: fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc)),
					// The panel id keeps the PA and HAPA m=1 panels' journal
					// keys apart: both use seed offset 0 AND one label
					// format, so a resume would swap their rows.
					tag:     id,
					factory: paTopo(sc.NSearch, m, kc),
					seed:    seed + uint64(i*100000+m*1000+kc),
					alg:     alg, maxTTL: sc.MaxTTLNF, kMin: m,
				})
			}
		}
	}

	// Panels (b), (e): CM with γ ∈ {2.2, 3.0}.
	for i, ms := range [][]int{{1}, {2, 3}} {
		id := figBase + string(rune('b'+3*i))
		panel(id, "CM", ms)
		for _, m := range ms {
			for _, gamma := range []float64{2.2, 3.0} {
				for _, kc := range cmCutoffs {
					pb.add(searchRun{
						label:   fmt.Sprintf("m=%d, gamma=%.1f, %s", m, gamma, cutoffLabel(kc)),
						tag:     id,
						factory: cmTopo(sc.NSearch, m, kc, gamma),
						seed:    seed + uint64(i*200000+m*1000+kc+int(gamma*10)),
						alg:     alg, maxTTL: sc.MaxTTLNF, kMin: m,
					})
				}
			}
		}
	}

	// Panels (c), (f): HAPA.
	for i, ms := range [][]int{{1}, {2, 3}} {
		id := figBase + string(rune('c'+3*i))
		panel(id, "HAPA model", ms)
		for _, m := range ms {
			for _, kc := range paCutoffs {
				pb.add(searchRun{
					label:   fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc)),
					tag:     id,
					factory: hapaTopo(sc.NSearch, m, kc),
					seed:    seed + uint64(i*300000+m*1000+kc),
					alg:     alg, maxTTL: sc.MaxTTLNF, kMin: m,
				})
			}
		}
	}
	return searchPanels(sc, pb)
}

// Fig9 regenerates Fig. 9: normalized flooding on PA, CM, and HAPA.
func Fig9(sc Scale, seed uint64) ([]Figure, error) {
	return nfRwPanels(sc, seed, algNF, "fig9", "NF")
}

// Fig11 regenerates Fig. 11: random walk (normalized to the NF message
// budget) on PA, CM, and HAPA.
func Fig11(sc Scale, seed uint64) ([]Figure, error) {
	return nfRwPanels(sc, seed, algRW, "fig11", "RW")
}

// dapaNFRW builds the nine panels shared by Figs. 10 and 12: NF (or RW) on
// DAPA overlays, panels m ∈ {1,2,3} × kc ∈ {none,50,10}, series over
// τ_sub ∈ {2,4,6,8,10,20,50}.
func dapaNFRW(sc Scale, seed uint64, alg algKind, figBase, titleAlg string) ([]Figure, error) {
	substrates, err := makeSubstrates(sc.NSubstrate, sc, seed^0xda9a)
	if err != nil {
		return nil, err
	}
	taus := []int{2, 4, 6, 8, 10, 20, 50}
	pb := &panelBatch[searchRun]{}
	panel := 0
	for _, m := range []int{1, 2, 3} {
		for _, kc := range []int{gen.NoCutoff, 50, 10} {
			pb.panel(Figure{
				ID:     fmt.Sprintf("%s%c", figBase, 'a'+panel),
				Title:  fmt.Sprintf("%s results for DAPA model, m=%d, %s", titleAlg, m, cutoffLabel(kc)),
				XLabel: "tau", YLabel: "number of hits", LogY: m > 1,
			})
			panel++
			for _, tau := range taus {
				pb.add(searchRun{
					label:   fmt.Sprintf("tau_sub=%d", tau),
					factory: dapaTopo(substrates, sc.NOverlay, m, kc, tau),
					seed:    seed + uint64(panel*10000+tau),
					alg:     alg, maxTTL: sc.MaxTTLNF, kMin: m,
				})
			}
		}
	}
	return searchPanels(sc, pb)
}

// Fig10 regenerates Fig. 10: normalized flooding on DAPA overlays.
func Fig10(sc Scale, seed uint64) ([]Figure, error) {
	return dapaNFRW(sc, seed, algNF, "fig10", "NF")
}

// Fig12 regenerates Fig. 12: random walk (NF budget) on DAPA overlays.
func Fig12(sc Scale, seed uint64) ([]Figure, error) {
	return dapaNFRW(sc, seed, algRW, "fig12", "RW")
}
