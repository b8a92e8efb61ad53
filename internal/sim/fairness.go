package sim

import (
	"fmt"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

// Fairness quantifies the paper's central motivation (§I: hard cutoffs
// exist "to achieve fairness and practicality among all peers"): the Gini
// coefficient of the degree sequence — how unequally neighbor-table load
// is spread — and the load share of the top 1% of peers, as functions of
// the hard cutoff, for PA and DAPA topologies.
func Fairness(sc Scale, seed uint64) ([]Figure, error) {
	cutoffs := []int{10, 20, 40, 80, gen.NoCutoff}
	substrates, err := makeSubstrates(sc.NSubstrate, sc, seed^0xfa17)
	if err != nil {
		return nil, err
	}
	models := []struct {
		label string
		mk    func(kc int) topoFactory
	}{
		{"PA m=2", func(kc int) topoFactory { return paTopo(sc.NSearch, 2, kc) }},
		{"DAPA m=2 tau=10", func(kc int) topoFactory {
			return dapaTopo(substrates, sc.NOverlay, 2, kc, 10)
		}},
	}
	gini := Figure{
		ID:     "fairness-gini",
		Title:  "Load fairness: Gini coefficient of peer degrees vs hard cutoff",
		XLabel: "kc (0 = none)", YLabel: "Gini coefficient",
		Notes: "smaller cutoffs spread neighbor-table load more evenly — the paper's fairness motivation quantified",
	}
	topShare := Figure{
		ID:     "fairness-top1",
		Title:  "Load concentration: degree share of the top 1% of peers vs hard cutoff",
		XLabel: "kc (0 = none)", YLabel: "top-1% load share",
	}
	// Both panels' degree rows and the search-load rows below are sweeps
	// of one batch: a degree build's row is its Gini and top-1% share, a
	// search-load build's its Gini of NF handling work.
	var builds []blockBuild[*graph.Frozen, []float64, []float64]
	for mi, model := range models {
		for ci, kc := range cutoffs {
			tag := fmt.Sprintf("fairness %s kc=%d", model.label, kc)
			builds = append(builds, minted(shared(tag, seed+uint64(mi*1000+ci), model.mk(kc), journaled(tag, oneRow(2), func(_ int, g *graph.Frozen, _ *sweeper) ([]float64, error) {
				seq := g.DegreeSequence()
				return []float64{stats.Gini(seq), stats.TopShare(seq, 0.01)}, nil
			}))))
		}
	}

	// Third panel: the DYNAMIC version of the same claim. Degree is a
	// proxy for load; here the load is actual NF query-handling work
	// (forwards + receipts) accumulated over many searches.
	searchLoad := Figure{
		ID:     "fairness-searchload",
		Title:  "Search-traffic fairness: Gini of per-peer NF handling work vs hard cutoff (PA m=2)",
		XLabel: "kc (0 = none)", YLabel: "Gini of query-handling work",
		Notes: "degree Gini is a static proxy; this measures work under live NF query traffic",
	}
	queries := 8 * sc.Sources
	for ci, kc := range cutoffs {
		tag := fmt.Sprintf("fairness searchload kc=%d", kc)
		builds = append(builds, minted(shared(tag, seed+uint64(9000+ci), paTopo(sc.NSearch, 2, kc), journaled(tag, oneRow(1), func(r int, f *graph.Frozen, sw *sweeper) ([]float64, error) {
			gini, err := sw.nfLoadGini(uint64(r), f, queries, sc.MaxTTLNF)
			return []float64{gini}, err
		}))))
	}
	rows, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	means := make([]Series, len(builds))
	for k, bd := range builds {
		if means[k], err = aggregate(bd.name, rows[k][0], 0); err != nil {
			return nil, err
		}
	}
	for mi, model := range models {
		gs := Series{Label: model.label}
		ts := Series{Label: model.label}
		for ci, kc := range cutoffs {
			mean := means[mi*len(cutoffs)+ci]
			gs.Points = append(gs.Points, mean.at(0, float64(kc)))
			ts.Points = append(ts.Points, mean.at(1, float64(kc)))
		}
		gini.Series = append(gini.Series, gs)
		topShare.Series = append(topShare.Series, ts)
	}
	sl := Series{Label: "PA m=2, NF traffic"}
	for ci, kc := range cutoffs {
		sl.Points = append(sl.Points, means[len(models)*len(cutoffs)+ci].at(0, float64(kc)))
	}
	searchLoad.Series = []Series{sl}
	return []Figure{gini, topShare, searchLoad}, nil
}

// nfLoadGini runs queries NF searches (τ ≤ maxTTL, fan-out 2) from the
// stream's random sources on f and returns the Gini coefficient of the
// per-peer handling work they cause. Each shard charges its own Load;
// integer merges commute, so the total — and its Gini — is identical for
// any shard count.
func (sw *sweeper) nfLoadGini(stream uint64, f *graph.Frozen, queries, maxTTL int) (float64, error) {
	loads := make([]*search.Load, sw.shards)
	err := sw.Sources(stream, queries, func(shard, _ int, rng *xrand.RNG, scratch *search.Scratch) error {
		if loads[shard] == nil {
			loads[shard] = search.NewLoad(f.N())
		}
		return scratch.NormalizedFloodLoad(f, rng.Intn(f.N()), maxTTL, 2, rng, loads[shard])
	})
	if err != nil {
		return 0, err
	}
	total := search.NewLoad(f.N())
	for _, ld := range loads {
		if ld == nil {
			continue
		}
		if err := total.Merge(ld); err != nil {
			return 0, err
		}
	}
	return stats.Gini(total.Work()), nil
}
