package sim

// Extension experiments beyond the paper's evaluation section, each tied
// to a claim in the paper's text:
//
//   - Attack: §III's "robust yet fragile" motivation — hard cutoffs remove
//     the super-hubs targeted attacks decapitate, so they should improve
//     attack tolerance. (The paper motivates cutoffs partly by this but
//     never measures it.)
//   - Delivery: Eqs. 6-7 — flooding delivery time T_N = log N; random-walk
//     delivery time T_N ~ N^0.79 on γ≈2.1 networks.
//   - KWalk: §V-B1's conjecture that "multiple RWs would perform more
//     similar to NF" at the same message budget.

import (
	"fmt"
	"math"
	"strings"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/metrics"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// Attack measures giant-component survival under random failures vs
// targeted hub attacks, on PA topologies with and without a hard cutoff.
func Attack(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "attack",
		Title:  "Robustness: giant component vs removed fraction (PA, m=2)",
		XLabel: "fraction removed", YLabel: "giant component fraction",
		Notes: "hard cutoffs blunt targeted attacks by removing super-hubs",
	}
	pivots := sc.BCPivots
	if pivots == 0 {
		pivots = metrics.DefaultBetweennessPivots
	}
	// The betweenness attack — the strongest variant — is feasible at scale
	// only through the batched Brandes–Pich estimator: one pivot-sampled
	// pass per measurement step prices every node, the step's removals
	// follow the estimated scores, and each step's mean standard error is
	// published as its own series (the estimator's uncertainty column).
	cases := []struct {
		kc    int
		strat metrics.RemovalStrategy
	}{ // legend order
		{gen.NoCutoff, metrics.RemoveRandom}, {gen.NoCutoff, metrics.RemoveHighestDegree},
		{10, metrics.RemoveRandom}, {10, metrics.RemoveHighestDegree},
		{gen.NoCutoff, metrics.RemoveHighestBetweenness}, {10, metrics.RemoveHighestBetweenness},
	}
	labels := make([]string, len(cases))
	builds := make([]blockBuild[[][]float64, [][]float64, [][]float64], len(cases))
	for i, c := range cases {
		kc, strat := c.kc, c.strat
		label, nCols := fmt.Sprintf("%s, %s", cutoffLabel(kc), strat), 2
		if strat == metrics.RemoveHighestBetweenness {
			label, nCols = label+fmt.Sprintf(" (batched, %d pivots)", pivots), 3
		}
		labels[i] = label
		// A realization's block is its removal curve, one row per column
		// over the measurement points: removed fraction, giant fraction,
		// and for the batched attack the step's mean stderr (zero at point
		// 0, which no step precedes).
		builds[i] = shared("attack "+label, seed+uint64(kc)*31+uint64(strat), func(r int, b *builder) ([][]float64, error) {
			g, _, err := gen.PABuild(gen.PAConfig{N: sc.NSearch, M: 2, KC: kc}, b.gen())
			if err != nil {
				return nil, err
			}
			// Nothing reads the snapshot past the curve: back to the arena.
			f := b.arena.Freeze(g, b.width)
			pts, steps, err := metrics.RobustnessWith(f, metrics.RobustnessConfig{
				Strategy: strat, StepFrac: 0.02, MaxFrac: 0.4,
				BetweennessPivots: pivots,
			}, b.rng)
			b.arena.Recycle(f)
			if err != nil {
				return nil, err
			}
			cols := make([][]float64, nCols)
			for c := range cols {
				cols[c] = make([]float64, len(pts))
			}
			for i, p := range pts {
				cols[0][i], cols[1][i] = p.RemovedFrac, p.GiantFrac
			}
			for i, s := range steps {
				cols[2][i+1] = s.MeanSE
			}
			return cols, nil
		}, journaled[[][]float64]("attack "+label, rowBlocks(recSweepSlots, nCols, -1), nil))
	}
	curves, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		// Realizations share the removal schedule (same N, same step),
		// so rows align and row 0 is the x axis.
		blocks := curves[i][0]
		xs := firstRow(blockRow(blocks, 0))
		s, err := aggregate(labels[i], blockRow(blocks, 1), 0)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s.withX(xs))
		if c.strat == metrics.RemoveHighestBetweenness {
			se, err := aggregate(fmt.Sprintf("%s, %s stderr (removed nodes)", cutoffLabel(c.kc), c.strat), blockRow(blocks, 2), 1)
			if err != nil {
				return nil, err
			}
			fig.Series = append(fig.Series, se.withX(xs[1:]))
		}
	}
	fig.Notes += fmt.Sprintf("; betweenness series use batched Brandes-Pich estimates (%d pivots, scores scaled N/pivots, recomputed once per 2%% step) with per-step mean stderr of the removed nodes' scores reported as the stderr series", pivots)
	return []Figure{fig}, nil
}

// Delivery measures mean delivery time vs network size for flooding and
// random walks on γ=2.2 CM giants, checking the functional forms of
// Eqs. 6 and 7. The fitted RW scaling exponent is recorded in Notes
// (Adamic et al. predict ~0.79 at γ=2.1).
func Delivery(sc Scale, seed uint64) ([]Figure, error) {
	sizes := []int{sc.NSearch / 4, sc.NSearch / 2, sc.NSearch, sc.NSearch * 2}
	fig := Figure{
		ID:     "delivery",
		Title:  "Delivery time vs N (CM gamma=2.2): FL ~ logN, RW ~ N^0.79",
		XLabel: "N", YLabel: "mean delivery time", LogX: true, LogY: true,
	}
	flSeries := Series{Label: "FL (shortest path)"}
	rwSeries := Series{Label: "RW (first arrival)"}
	// budgets[si] is the per-pair walk budget at sizes[si]: the paper's
	// 200·N steps, bounded by WalkCap so xl sizes stay linear-time. A
	// capped walk that never delivers is a truncation: excluded from the
	// mean, counted in the notes.
	budgets := make([]int, len(sizes))
	builds := make([]blockBuild[*graph.Frozen, []float64, []float64], len(sizes))
	pairs := sc.Sources
	for si, n := range sizes {
		budget := 200 * n
		if sc.WalkCap > 0 && budget > sc.WalkCap {
			budget = sc.WalkCap
		}
		budgets[si] = budget
		// A realization's row: mean FL time, mean RW time, walks tried,
		// walks truncated.
		tag := fmt.Sprintf("delivery N=%d", n)
		builds[si] = shared("", seed+uint64(si)*977, func(r int, b *builder) (*graph.Frozen, error) {
			f, _, err := gen.CMFrozen(gen.CMConfig{N: n, M: 2, Gamma: 2.2}, b.gen())
			if err != nil {
				return nil, err
			}
			// CSR end to end: the CM realization is built straight into
			// frozen form and the giant component is carved out of it with
			// InducedFrozen, without a mutable Graph. One snapshot serves
			// every delivery pair. The lane minted f and nothing reads it
			// once fsub is carved, so it goes back to the arena, which the
			// engine takes it back from for a later build; fsub, carved
			// outside the lane's snapshots, is never retired.
			fsub, _ := f.InducedFrozen(f.GiantComponent())
			b.arena.Recycle(f)
			return fsub, nil
		}, journaled(tag, oneRow(4), func(r int, fsub *graph.Frozen, sw *sweeper) ([]float64, error) {
			// Per pair: FL time, RW time (0 = not delivered) and whether
			// the walk ran at all.
			flTimes, rwTimes, rwTried := make([]int, pairs), make([]int, pairs), make([]bool, pairs)
			err := sw.Sources(uint64(r), pairs, func(_, i int, rng *xrand.RNG, scratch *search.Scratch) error {
				src, dst := rng.Intn(fsub.N()), rng.Intn(fsub.N())
				if src == dst {
					return nil // slot stays not-found, as the serial skip did
				}
				fd, err := scratch.FloodDelivery(fsub, src, dst, 60)
				if err != nil {
					return err
				}
				if fd.Found {
					flTimes[i] = fd.Time
				}
				rwTried[i] = true
				rd, err := search.RandomWalkDelivery(fsub, src, dst, budget, rng)
				if err != nil {
					return err
				}
				if rd.Found {
					rwTimes[i] = rd.Time
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			var flSum, rwSum, flN, rwN, tried float64
			for i := 0; i < pairs; i++ {
				if flTimes[i] > 0 {
					flSum += float64(flTimes[i])
					flN++
				}
				if rwTimes[i] > 0 {
					rwSum += float64(rwTimes[i])
					rwN++
				}
				if rwTried[i] {
					tried++
				}
			}
			if flN == 0 || rwN == 0 {
				return nil, fmt.Errorf("no deliveries at n=%d", n)
			}
			return []float64{flSum / flN, rwSum / rwN, tried, tried - rwN}, nil
		}))
	}
	rows, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	var truncNotes []string
	for si, n := range sizes {
		mean, err := aggregate(builds[si].series[0].tag, rows[si][0], 0)
		if err != nil {
			return nil, err
		}
		if sc.WalkCap > 0 {
			tried, trunc := 0, 0
			for _, row := range rows[si][0] {
				if row != nil {
					tried, trunc = tried+int(row[2]), trunc+int(row[3])
				}
			}
			if trunc > 0 {
				truncNotes = append(truncNotes, fmt.Sprintf("N=%d: %d/%d walks truncated at %d steps", n, trunc, tried, budgets[si]))
			}
		}
		flSeries.Points = append(flSeries.Points, mean.at(0, float64(n)))
		rwSeries.Points = append(rwSeries.Points, mean.at(1, float64(n)))
	}
	fig.Series = []Series{flSeries, rwSeries}

	// Fit RW scaling exponent: slope of log T vs log N.
	var xs, ys []float64
	for _, p := range rwSeries.Points {
		if p.Y > 0 {
			xs = append(xs, math.Log(p.X))
			ys = append(ys, math.Log(p.Y))
		}
	}
	if len(xs) >= 2 {
		slope := (ys[len(ys)-1] - ys[0]) / (xs[len(xs)-1] - xs[0])
		fig.Notes = fmt.Sprintf("RW scaling exponent measured %.2f (Eq. 7 predicts 0.79 at gamma=2.1); FL grows ~logN", slope)
	}
	if sc.WalkCap > 0 {
		note := fmt.Sprintf("RW budget capped at min(200*N, %d) steps per pair", sc.WalkCap)
		if len(truncNotes) > 0 {
			note += "; truncated walks excluded from means: " + strings.Join(truncNotes, ", ")
		} else {
			note += "; no walks truncated"
		}
		if fig.Notes != "" {
			fig.Notes += "; "
		}
		fig.Notes += note
	}
	return []Figure{fig}, nil
}

// KWalk compares NF, a single NF-budget walk, and k parallel walkers at
// the same total message budget — quantifying §V-B1's "multiple RWs would
// perform more similar to NF".
func KWalk(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "kwalk",
		Title:  "Multiple random walkers vs NF at equal message budget (PA, m=2, kc=40)",
		XLabel: "tau", YLabel: "number of hits",
	}
	const kWalkers = 8
	factory := paTopo(sc.NSearch, 2, 40)
	variants := []struct {
		label string
		run   func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG, row []float64) error
	}{
		{"NF", func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG, row []float64) error {
			res, err := scratch.NormalizedFlood(f, src, sc.MaxTTLNF, 2, rng)
			if err == nil {
				hitsRow(res, row)
			}
			return err
		}},
		{"1 walker (NF budget)", func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG, row []float64) error {
			rw, _, err := scratch.RandomWalkWithNFBudget(f, src, sc.MaxTTLNF, 2, rng)
			if err == nil {
				hitsRow(rw, row)
			}
			return err
		}},
		{fmt.Sprintf("%d walkers (NF budget)", kWalkers), func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG, row []float64) error {
			nf, err := scratch.NormalizedFlood(f, src, sc.MaxTTLNF, 2, rng)
			if err != nil {
				return err
			}
			// Copy the NF budget curve out: the walker call below recycles
			// the scratch buffers nf aliases.
			msgs := make([]int, sc.MaxTTLNF+1)
			for t := range msgs {
				msgs[t] = nf.MessagesAt(t)
			}
			steps := msgs[sc.MaxTTLNF] / kWalkers
			if steps < 1 {
				steps = 1
			}
			kw, err := scratch.KRandomWalks(f, src, kWalkers, steps, rng)
			if err != nil {
				return err
			}
			for t := range row {
				row[t] = float64(kw.HitsAt(msgs[t] / kWalkers))
			}
			return nil
		}},
	}
	builds := make([]blockBuild[*graph.Frozen, [][]float64, [][]float64], len(variants))
	for vi, v := range variants {
		builds[vi] = minted(shared("series "+v.label, seed+uint64(vi)*4099, factory, sweepSeries(sc, recSweepSlots, "kwalk "+v.label, 1, sc.MaxTTLNF+1,
			func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error {
				return sw.eachSource(r, f, rows, 1, func(_ int, scratch *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error {
					return v.run(scratch, f, src, rng, curves[0])
				})
			})))
	}
	means, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		s, err := aggregate(v.label, blockRow(means[vi][0], 0), 1)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return []Figure{fig}, nil
}
