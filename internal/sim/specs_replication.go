package sim

// Replication is an extension experiment connecting the paper's topology
// work to the replication literature it cites (§II: Cohen & Shenker [22],
// Lv et al. [23]). On PA topologies with and without a hard cutoff it
// measures the expected search size (random-walk probes to the first
// replica) of the three classic allocation strategies across replication
// budgets, reproducing Cohen & Shenker's square-root-is-optimal result on
// the paper's own overlays.

import (
	"fmt"

	"scalefree/internal/content"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// Replication measures ESS vs replication budget for uniform,
// proportional, and square-root allocation on PA (m=2) topologies, one
// panel without a cutoff and one with kc=10.
func Replication(sc Scale, seed uint64) ([]Figure, error) {
	const (
		m        = 2
		items    = 100
		alpha    = 1.2
		queries  = 400
		maxSteps = 40000
	)
	budgetsPerN := []float64{0.25, 0.5, 1, 2}
	strategies := []content.Strategy{content.Uniform, content.Proportional, content.SquareRoot}

	cutoffs := []int{gen.NoCutoff, 10}
	var builds []blockBuild[*graph.Frozen, []float64, []float64]
	for _, kc := range cutoffs {
		for si, strat := range strategies {
			tag := fmt.Sprintf("replication %s %s", cutoffLabel(kc), strat)
			buildSeed := seed + uint64(si)*6151 + uint64(kc)
			builds = append(builds, minted(shared(tag, buildSeed, paTopo(sc.NSearch, m, kc),
				journaled(tag, oneRow(len(budgetsPerN)), func(r int, fg *graph.Frozen, sw *sweeper) ([]float64, error) {
					// All budgets probe the same realization. Placements
					// draw sequentially from the realization's
					// "replication" phase stream, so they depend only on
					// (seed, realization), never on pipeline scheduling.
					rep := xrand.Phases{Seed: buildSeed, Realization: uint64(r)}.Stream("replication")
					cat, err := content.NewCatalog(items, alpha)
					if err != nil {
						return nil, err
					}
					row := make([]float64, len(budgetsPerN))
					for bi, f := range budgetsPerN {
						budget := int(f * float64(fg.N()))
						if budget < items {
							budget = items
						}
						p, err := content.Replicate(cat, fg.N(), budget, strat, rep)
						if err != nil {
							return nil, err
						}
						// The stream tag separates budgets within the realization.
						res, err := sw.essQueries(uint64(r)*uint64(len(budgetsPerN))+uint64(bi), queries, fg, p, cat, maxSteps)
						if err != nil {
							return nil, err
						}
						if res.Found == 0 {
							return nil, fmt.Errorf("replication: no queries resolved at budget %d", budget)
						}
						row[bi] = res.MeanSteps
					}
					return row, nil
				}))))
		}
	}
	perReal, err := realizationBatch(sc, builds...)
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
			ID:     fmt.Sprintf("replication-%s", slug),
			Title:  fmt.Sprintf("Expected search size vs replication budget (PA, m=%d, %s, Zipf %.1f)", m, cutoffLabel(kc), alpha),
			XLabel: "replication budget (copies / N)", YLabel: "expected search size (walk probes)",
			LogY:  true,
			Notes: "Cohen-Shenker: square-root allocation minimizes ESS under random probing",
		}
		for si, strat := range strategies {
			s, err := aggregate(strat.String(), perReal[ki*len(strategies)+si][0], 0)
			if err != nil {
				return nil, err
			}
			figs[ki].Series = append(figs[ki].Series, s.withX(budgetsPerN))
		}
	}

	// Sanity note: record whether square-root won at the mid budget.
	for fi := range figs {
		f := &figs[fi]
		if len(f.Series) == 3 && len(f.Series[0].Points) >= 3 {
			u := f.Series[0].Points[2].Y
			p := f.Series[1].Points[2].Y
			s := f.Series[2].Points[2].Y
			f.Notes += fmt.Sprintf("; at budget=N: uniform %.0f, proportional %.0f, sqrt %.0f probes", u, p, s)
		}
	}
	return figs, nil
}

// essQueries resolves queries random-probe lookups of p's items on fg,
// sharded across the sweeper with one (seed, stream, q) stream per query,
// and collects their expected search size.
func (sw *sweeper) essQueries(stream uint64, queries int, fg *graph.Frozen, p *content.Placement, cat *content.Catalog, maxSteps int) (content.ESSResult, error) {
	steps := make([]int, queries)
	found := make([]bool, queries)
	err := sw.Sources(stream, queries, func(_, q int, rng *xrand.RNG, _ *search.Scratch) error {
		steps[q], found[q] = content.ResolveQuery(fg, p, cat, maxSteps, rng)
		return nil
	})
	return content.CollectESS(steps, found), err
}
