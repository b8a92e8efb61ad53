package main

import (
	"fmt"

	"scalefree/internal/gen"
	"scalefree/internal/sim"
)

// Journal record kinds the replay meets, as sim.SlotRecord.Kind carries
// them (sim.KindName renders them).
const (
	kindSweepSlots uint8 = 1
	kindDESSlots   uint8 = 3
)

// topoDef names one topology of a series.
type topoDef struct {
	model     string // "pa", "hapa", "cm", "dapa"
	n, m, kc  int
	gamma     float64
	tauSub    int
	substrate uint64 // dapa: seed of the realization's GRN substrate stream
}

// seriesDef is one row of a spec's series table: everything the replay
// needs to rebuild realization 0 of the series through public functions
// and to find the journal record the engine wrote for it.
type seriesDef struct {
	tag    string // the series' journal tag; its FNV-1a hash is SlotRecord.Sub
	kind   uint8
	seed   uint64 // the series' engine seed; SlotRecord.Stream
	topo   topoDef
	alg    string // "fl", "nf", "rw", "des"
	maxTTL int
	kMin   int
	loss   float64 // des
}

func cutoffLabel(kc int) string {
	if kc == gen.NoCutoff {
		return "no kc"
	}
	return fmt.Sprintf("kc=%d", kc)
}

// seriesTable repeats, for the four specs the workloads use, the series
// loops of internal/sim's spec functions (labels, seed offsets, topology
// parameters). The replay checks every rebuilt series against the record
// the engine journaled under the same key, so a table that drifts from
// its spec fails the traced run instead of skewing the layer budget.
func seriesTable(spec string, sc sim.Scale, seed uint64) ([]seriesDef, error) {
	var out []seriesDef
	switch spec {
	case "fig7":
		for pi, gamma := range []float64{2.2, 2.6, 3.0} {
			for _, m := range []int{1, 2, 3} {
				for _, kc := range []int{10, 40, gen.NoCutoff} {
					out = append(out, seriesDef{
						tag: fmt.Sprintf("m=%d, %s", m, cutoffLabel(kc)), kind: kindSweepSlots,
						seed: seed + uint64(pi*10000+m*100+kc),
						topo: topoDef{model: "cm", n: sc.NSearch, m: m, kc: kc, gamma: gamma},
						alg:  "fl", maxTTL: sc.MaxTTLFlood,
					})
				}
			}
		}
	case "fig8":
		for _, m := range []int{1, 2, 3} {
			for _, kc := range []int{10, 50, gen.NoCutoff} {
				for _, tau := range []int{2, 4, 10, 50} {
					out = append(out, seriesDef{
						tag: fmt.Sprintf("%s, tau_sub=%d", cutoffLabel(kc), tau), kind: kindSweepSlots,
						seed: seed + uint64(m*100000+kc*100+tau),
						topo: topoDef{model: "dapa", n: sc.NOverlay, m: m, kc: kc, tauSub: tau, substrate: seed ^ 0xf18},
						alg:  "fl", maxTTL: 3 * sc.MaxTTLFlood,
					})
				}
			}
		}
	case "fig9":
		paCutoffs := []int{10, 20, 40, 60, 80, 100, 200}
		cmCutoffs := []int{10, 40, gen.NoCutoff}
		growth := func(model string, col rune, offset int) {
			for i, ms := range [][]int{{1}, {2, 3}} {
				id := "fig9" + string(col+rune(3*i))
				for _, m := range ms {
					for _, kc := range paCutoffs {
						out = append(out, seriesDef{
							tag: fmt.Sprintf("%s: m=%d, %s", id, m, cutoffLabel(kc)), kind: kindSweepSlots,
							seed: seed + uint64(i*offset+m*1000+kc),
							topo: topoDef{model: model, n: sc.NSearch, m: m, kc: kc},
							alg:  "nf", maxTTL: sc.MaxTTLNF, kMin: m,
						})
					}
				}
			}
		}
		growth("pa", 'a', 100000)
		for i, ms := range [][]int{{1}, {2, 3}} {
			id := "fig9" + string('b'+rune(3*i))
			for _, m := range ms {
				for _, gamma := range []float64{2.2, 3.0} {
					for _, kc := range cmCutoffs {
						out = append(out, seriesDef{
							tag: fmt.Sprintf("%s: m=%d, gamma=%.1f, %s", id, m, gamma, cutoffLabel(kc)), kind: kindSweepSlots,
							seed: seed + uint64(i*200000+m*1000+kc+int(gamma*10)),
							topo: topoDef{model: "cm", n: sc.NSearch, m: m, kc: kc, gamma: gamma},
							alg:  "nf", maxTTL: sc.MaxTTLNF, kMin: m,
						})
					}
				}
			}
		}
		growth("hapa", 'c', 300000)
	case "desflood":
		for _, loss := range []float64{0, 0.02, 0.10} {
			label := "lossless"
			if loss > 0 {
				label = fmt.Sprintf("loss=%.0f%%", loss*100)
			}
			out = append(out, seriesDef{
				tag: "desflood " + label, kind: kindDESSlots, seed: seed,
				topo: topoDef{model: "pa", n: sc.NSearch, m: 2, kc: gen.NoCutoff},
				alg:  "des", maxTTL: sc.MaxTTLFlood, loss: loss,
			})
		}
	default:
		return nil, fmt.Errorf("no series table for spec %q", spec)
	}
	return out, nil
}
