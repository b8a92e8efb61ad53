package sim

// Strategies is an extension experiment comparing every search strategy in
// the repository — the paper's FL/NF/RW plus the related-work baselines it
// cites (§II): Adamic et al.'s high-degree-seeking walk [62],
// probabilistic flooding [29], and the Gkantsidis–Mihail–Saberi
// flood-then-walk hybrid [30] — at EQUAL MESSAGE BUDGETS, extending the
// paper's §V-B normalization from a pairwise NF↔RW comparison to the full
// strategy set. Run on PA topologies with and without a hard cutoff, it
// shows which strategies depend on hubs (HDS collapses under kc=10) and
// which benefit from the cutoff (NF, walks), generalizing the paper's
// headline finding.

import (
	"fmt"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// strategyBudgets are the message budgets (X axis) the comparison samples.
func strategyBudgets(n int) []int {
	base := []int{10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	var out []int
	for _, b := range base {
		if b <= 4*n {
			out = append(out, b)
		}
	}
	return out
}

// hitsAtBudget reads a Result's coverage at a message budget: the hits at
// the last time index whose cumulative message count is within the budget.
func hitsAtBudget(res search.Result, budget int) float64 {
	best := 0
	for t := range res.Messages {
		if res.Messages[t] <= budget && res.Hits[t] > best {
			best = res.Hits[t]
		}
	}
	return float64(best)
}

// Strategies compares FL, NF, RW, k walkers, the high-degree-seeking walk,
// probabilistic flooding, and hybrid search at equal message budgets on PA
// (m=2), one panel without a cutoff and one with kc=10.
func Strategies(sc Scale, seed uint64) ([]Figure, error) {
	const m = 2
	variants := []struct {
		label string
		run   func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error)
	}{
		{"FL", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			return scratch.Flood(f, src, sc.MaxTTLFlood)
		}},
		{"NF", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			return scratch.NormalizedFlood(f, src, sc.MaxTTLFlood, m, rng)
		}},
		{"RW", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			return scratch.RandomWalk(f, src, budgets[len(budgets)-1], rng)
		}},
		{"8 walkers", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			const k = 8
			return scratch.KRandomWalks(f, src, k, budgets[len(budgets)-1]/k+1, rng)
		}},
		{"HDS walk", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			return scratch.HighDegreeWalk(f, src, budgets[len(budgets)-1], rng)
		}},
		{"PF p=0.5", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			return scratch.ProbabilisticFlood(f, src, sc.MaxTTLFlood, 0.5, rng)
		}},
		{"hybrid (flood 2 + 8 walkers)", func(scratch *search.Scratch, f *graph.Frozen, src int, budgets []int, rng *xrand.RNG) (search.Result, error) {
			return scratch.HybridSearch(f, src, 2, 8, budgets[len(budgets)-1]/8+1, rng)
		}},
	}

	cutoffs := []int{gen.NoCutoff, 10}
	budgets := strategyBudgets(sc.NSearch)
	var builds []blockBuild[*graph.Frozen, [][]float64, [][]float64]
	for _, kc := range cutoffs {
		factory := paTopo(sc.NSearch, m, kc)
		for vi, v := range variants {
			tag := fmt.Sprintf("strategies %s %s", cutoffLabel(kc), v.label)
			builds = append(builds, minted(shared("series "+v.label, seed+uint64(vi)*7919+uint64(kc), factory, sweepSeries(sc, recSweepSlots, tag, 1, len(budgets),
				func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error {
					return sw.eachSource(r, f, rows, 1, func(_ int, scratch *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error {
						res, err := v.run(scratch, f, src, budgets, rng)
						if err == nil {
							sampleBudgets(res, budgets, curves[0])
						}
						return err
					})
				}))))
		}
	}
	means, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	figs := make([]Figure, len(cutoffs))
	for ki, kc := range cutoffs {
		slug := "nokc"
		if kc != gen.NoCutoff {
			slug = fmt.Sprintf("kc%d", kc)
		}
		figs[ki] = Figure{
			ID:     fmt.Sprintf("strategies-%s", slug),
			Title:  fmt.Sprintf("Search strategies at equal message budget (PA, m=%d, %s)", m, cutoffLabel(kc)),
			XLabel: "message budget", YLabel: "number of hits",
			LogX:  true,
			Notes: "extends §V-B's NF-budget normalization to all strategies; HDS = Adamic high-degree-seeking walk",
		}
		for vi, v := range variants {
			s, err := aggregate(v.label, blockRow(means[ki*len(variants)+vi][0], 0), 0)
			if err != nil {
				return nil, err
			}
			// aggregate indexes X by position; rewrite to the budget axis.
			for i := range s.Points {
				s.Points[i].X = float64(budgets[i])
			}
			figs[ki].Series = append(figs[ki].Series, s)
		}
	}
	return figs, nil
}

// sampleBudgets fills row[i] with hitsAtBudget at budgets[i].
func sampleBudgets(res search.Result, budgets []int, row []float64) {
	for i, b := range budgets {
		row[i] = hitsAtBudget(res, b)
	}
}
