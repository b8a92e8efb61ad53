package sim

// Extension claims: checkable conclusions of the extension experiments,
// verified alongside the paper's headline claims by
// `cmd/experiments -verify`. Each ties to a section of EXPERIMENTS.md.

import (
	"fmt"

	"scalefree/internal/churn"
	"scalefree/internal/content"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// ExtensionClaims returns the checkable conclusions of the extension
// experiments, in EXPERIMENTS.md order.
func ExtensionClaims() []Claim {
	return []Claim{
		{
			ID:        "sqrt-replication-optimal",
			Statement: "Square-root replication minimizes expected search size on hard-cutoff overlays (Cohen-Shenker, refs [22][23])",
			Check:     checkSqrtReplication,
		},
		{
			ID:        "churn-repair-preserves-giant",
			Statement: "Reconnect repair preserves the giant component under balanced churn (§VI future work)",
			Check:     checkChurnRepair,
		},
		{
			ID:        "hds-cutoff-dependence",
			Statement: "The high-degree-seeking walk's advantage over a blind walk shrinks under a hard cutoff (ref [62] vs §III-B)",
			Check:     checkHDSCutoffDependence,
		},
		{
			ID:        "cutoff-flattens-search-load",
			Statement: "Hard cutoffs flatten per-peer query-handling load under NF traffic, not just the degree proxy (§I)",
			Check:     checkCutoffFlattensLoad,
		},
	}
}

// AllClaims returns the paper claims followed by the extension claims.
func AllClaims() []Claim {
	return append(Claims(), ExtensionClaims()...)
}

// CheckAllClaims runs the paper claims and the extension claims.
func CheckAllClaims(sc Scale, seed uint64) []ClaimResult {
	return checkClaimList(AllClaims(), sc, seed)
}

func checkSqrtReplication(sc Scale, seed uint64) (bool, string, error) {
	rng := xrand.New(seed)
	g, _, err := gen.PA(gen.PAConfig{N: sc.NSearch, M: 2, KC: 40}, rng)
	if err != nil {
		return false, "", err
	}
	cat, err := content.NewCatalog(100, 1.2)
	if err != nil {
		return false, "", err
	}
	fg := g.Freeze() // every replication strategy probes the same overlay
	queries := 12 * sc.Sources
	maxSteps := 40 * sc.NSearch
	ess := func(s content.Strategy) (float64, error) {
		p, err := content.Replicate(cat, fg.N(), fg.N(), s, xrand.New(seed+1))
		if err != nil {
			return 0, err
		}
		// Stream 0 for every strategy, so all three resolve the identical
		// paired workload.
		var r content.ESSResult
		err = withSweeper(sc.Workers, seed+2, func(sw *sweeper) (err error) {
			r, err = sw.essQueries(0, queries, fg, p, cat, maxSteps)
			return err
		})
		if err != nil {
			return 0, err
		}
		if r.Found == 0 {
			return 0, fmt.Errorf("no queries resolved for %s", s)
		}
		return r.MeanSteps, nil
	}
	u, err := ess(content.Uniform)
	if err != nil {
		return false, "", err
	}
	p, err := ess(content.Proportional)
	if err != nil {
		return false, "", err
	}
	s, err := ess(content.SquareRoot)
	if err != nil {
		return false, "", err
	}
	detail := fmt.Sprintf("ESS uniform=%.0f proportional=%.0f sqrt=%.0f", u, p, s)
	return s < u && s < p, detail, nil
}

func checkChurnRepair(sc Scale, seed uint64) (bool, string, error) {
	giantAfter := func(policy churn.RepairPolicy) (float64, error) {
		sim, err := churn.New(churn.Config{
			InitialN: sc.NSearch, M: 2, KC: 10,
			Join:     churn.JoinPreferential,
			Repair:   policy,
			Graceful: true,
		}, xrand.New(seed))
		if err != nil {
			return 0, err
		}
		trace, err := sim.Run(2*sc.NSearch, 0.5, 0, 0, 0)
		if err != nil {
			return 0, err
		}
		return trace[len(trace)-1].GiantFrac, nil
	}
	repaired, err := giantAfter(churn.ReconnectRepair)
	if err != nil {
		return false, "", err
	}
	bare, err := giantAfter(churn.NoRepair)
	if err != nil {
		return false, "", err
	}
	detail := fmt.Sprintf("giant after %d events: repair=%.3f no-repair=%.3f", 2*sc.NSearch, repaired, bare)
	return repaired >= 0.95 && repaired >= bare, detail, nil
}

func checkHDSCutoffDependence(sc Scale, seed uint64) (bool, string, error) {
	steps := sc.NSearch / 2
	// The running sums below cross realizations, so each series keeps every
	// block whole, in rows of its own.
	cutoffs := []int{gen.NoCutoff, 10}
	builds := make([]blockBuild[*graph.Frozen, [][]float64, [][]float64], len(cutoffs))
	for i, kc := range cutoffs {
		builds[i] = shared("", seed+uint64(kc), paTopo(sc.NSearch, 2, kc),
			journaled(fmt.Sprintf("hds-cutoff-dependence %s", cutoffLabel(kc)), rowBlocks(recSweepSlots, sc.Sources, 2), func(r int, f *graph.Frozen, sw *sweeper) ([][]float64, error) {
				rows := slabRows(make([][]float64, sc.Sources), make([]float64, 2*sc.Sources), 2)
				return rows, sw.eachSource(r, f, rows, 1, func(_ int, scratch *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error {
					rh, err := scratch.HighDegreeWalk(f, src, steps, rng)
					if err != nil {
						return err
					}
					// Consume rh before the next scratch call recycles it.
					curves[0][0] = float64(rh.HitsAt(steps))
					rb, err := scratch.RandomWalk(f, src, steps, rng)
					if err != nil {
						return err
					}
					curves[0][1] = float64(rb.HitsAt(steps))
					return nil
				})
			}))
	}
	blocks, err := realizationBatch(sc, builds...)
	if err != nil {
		return false, "", err
	}
	ratios := make([]float64, len(cutoffs))
	for i := range cutoffs {
		var hds, rw float64
		for _, rows := range blocks[i][0] {
			for _, row := range rows {
				hds += row[0]
				rw += row[1]
			}
		}
		if rw == 0 {
			return false, "", fmt.Errorf("blind walk covered nothing")
		}
		ratios[i] = hds / rw
	}
	free, capped := ratios[0], ratios[1]
	detail := fmt.Sprintf("HDS/RW coverage ratio: no-kc=%.2f kc10=%.2f", free, capped)
	return free > 1 && capped < free, detail, nil
}

func checkCutoffFlattensLoad(sc Scale, seed uint64) (bool, string, error) {
	loadGini := func(kc int) (float64, error) {
		g, _, err := gen.PA(gen.PAConfig{N: sc.NSearch, M: 2, KC: kc}, xrand.New(seed))
		if err != nil {
			return 0, err
		}
		f := g.Freeze()
		var gini float64
		err = withSweeper(sc.Workers, seed+1, func(sw *sweeper) (err error) {
			gini, err = sw.nfLoadGini(0, f, 12*sc.Sources, sc.MaxTTLNF)
			return err
		})
		return gini, err
	}
	free, err := loadGini(gen.NoCutoff)
	if err != nil {
		return false, "", err
	}
	capped, err := loadGini(10)
	if err != nil {
		return false, "", err
	}
	detail := fmt.Sprintf("NF-load Gini: no-kc=%.3f kc10=%.3f", free, capped)
	return capped < free, detail, nil
}
