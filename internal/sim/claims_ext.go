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
	strategies := []content.Strategy{content.Uniform, content.Proportional, content.SquareRoot}
	ess := make([]content.ESSResult, len(strategies))
	jobs := make([]engineJob[*graph.Frozen], len(strategies))
	for i, s := range strategies {
		p, err := content.Replicate(cat, fg.N(), fg.N(), s, xrand.New(seed+1))
		if err != nil {
			return false, "", err
		}
		// Stream 0 of one seed for every strategy, so all three resolve the
		// identical paired workload.
		jobs[i] = engineJob[*graph.Frozen]{seed: seed + 2, build: prebuilt(fg), sweep: func(_ int, f *graph.Frozen, sw *sweeper) (err error) {
			ess[i], err = sw.essQueries(0, queries, f, p, cat, maxSteps)
			return err
		}}
	}
	if err := runPool(Scale{Realizations: 1, Workers: sc.Workers}, jobs...); err != nil {
		return false, "", err
	}
	for i, r := range ess {
		if r.Found == 0 {
			return false, "", fmt.Errorf("no queries resolved for %s", strategies[i])
		}
	}
	u, p, s := ess[0].MeanSteps, ess[1].MeanSteps, ess[2].MeanSteps
	detail := fmt.Sprintf("ESS uniform=%.0f proportional=%.0f sqrt=%.0f", u, p, s)
	return s < u && s < p, detail, nil
}

// prebuilt is the build of an engine job whose topology is built outside
// the engine (paired-workload claims that probe one overlay per arm): every
// realization is f.
func prebuilt(f *graph.Frozen) func(int, *builder) (*graph.Frozen, error) {
	return func(int, *builder) (*graph.Frozen, error) { return f, nil }
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
		builds[i] = minted(shared("", seed+uint64(kc), paTopo(sc.NSearch, 2, kc),
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
			})))
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
	cutoffs := []int{gen.NoCutoff, 10}
	gini := make([]float64, len(cutoffs))
	jobs := make([]engineJob[*graph.Frozen], len(cutoffs))
	for i, kc := range cutoffs {
		g, _, err := gen.PA(gen.PAConfig{N: sc.NSearch, M: 2, KC: kc}, xrand.New(seed))
		if err != nil {
			return false, "", err
		}
		jobs[i] = engineJob[*graph.Frozen]{seed: seed + 1, build: prebuilt(g.Freeze()), sweep: func(_ int, f *graph.Frozen, sw *sweeper) (err error) {
			gini[i], err = sw.nfLoadGini(0, f, 12*sc.Sources, sc.MaxTTLNF)
			return err
		}}
	}
	if err := runPool(Scale{Realizations: 1, Workers: sc.Workers}, jobs...); err != nil {
		return false, "", err
	}
	free, capped := gini[0], gini[1]
	detail := fmt.Sprintf("NF-load Gini: no-kc=%.3f kc10=%.3f", free, capped)
	return capped < free, detail, nil
}
