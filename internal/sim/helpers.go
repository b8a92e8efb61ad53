package sim

import (
	"fmt"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

// topoFactory builds the r-th topology realization from a build context,
// delivering it as a CSR snapshot. The realization index r lets factories
// pick per-realization shared inputs (DAPA substrates) without mutable
// state; the builder supplies the phase sub-streams, the intra-generator
// parallelism budget, and the build lane's CSR arena, so a factory
// invoked on any lane with any intra-generator width produces the
// identical topology.
//
// Two build paths hide behind this type. The growth models (PA, HAPA,
// DAPA) need mid-build HasEdge/Degree, so they grow a mutable Graph — the
// one the lane's arena lends, whose rows keep their capacity from build to
// build — and freeze it on the arena here, in the pipelined build stage,
// before the lane's next build resets it. CM (and the GRN substrates) never
// query the graph mid-build, so their pair streams — CM's stub array, GRN's
// graph.CSRBuilder chunks — are scattered straight into the snapshot and
// no mutable Graph ever exists. Either way the snapshot is minted by
// the lane: its freeze refills the arrays of the retired snapshot the lane
// handed its arena, when they fit, and goes back for a later build to
// refill: a batch that sweeps it (minted) retires it after its last sweep,
// and a degree batch's build hands it back once its histogram is read.
type topoFactory func(r int, b *builder) (*graph.Frozen, error)

func paTopo(n, m, kc int) topoFactory {
	return func(_ int, b *builder) (*graph.Frozen, error) {
		g, _, err := gen.PABuild(gen.PAConfig{N: n, M: m, KC: kc}, b.gen())
		if err != nil {
			return nil, err
		}
		return b.arena.Freeze(g, b.width), nil
	}
}

func hapaTopo(n, m, kc int) topoFactory {
	return func(_ int, b *builder) (*graph.Frozen, error) {
		g, _, err := gen.HAPABuild(gen.HAPAConfig{N: n, M: m, KC: kc}, b.gen())
		if err != nil {
			return nil, err
		}
		return b.arena.Freeze(g, b.width), nil
	}
}

// minted marks a build whose every realization is a snapshot its factory
// minted on the build lane and that only its sweeps read, so the engine
// retires each one after its last sweep (retireSnapshot).
func minted[B, R any](bd blockBuild[*graph.Frozen, B, R]) blockBuild[*graph.Frozen, B, R] {
	bd.retire = retireSnapshot
	return bd
}

func cmTopo(n, m, kc int, gamma float64) topoFactory {
	return func(_ int, b *builder) (*graph.Frozen, error) {
		f, _, err := gen.CMFrozen(gen.CMConfig{N: n, M: m, KC: kc, Gamma: gamma}, b.gen())
		return f, err
	}
}

// dapaTopo grows an overlay on the r-th pre-generated substrate. Substrates
// are shared across series of a figure (the paper's figures vary overlay
// parameters, not the substrate model) and arrive already frozen, so every
// (series × realization) overlay build reads one CSR snapshot instead of
// re-deriving substrate adjacency per factory call.
func dapaTopo(substrates []*graph.Frozen, nOverlay, m, kc, tauSub int) topoFactory {
	return func(r int, b *builder) (*graph.Frozen, error) {
		sub := substrates[r%len(substrates)]
		ov, _, err := gen.DAPABuild(sub, gen.DAPAConfig{
			NOverlay: nOverlay, M: m, KC: kc, TauSub: tauSub,
		}, b.gen())
		if err != nil {
			return nil, err
		}
		return b.arena.Freeze(ov.G, b.width), nil
	}
}

// makeSubstrates generates one GRN substrate per realization with the
// paper's parameters (k̄ = 10), built straight into CSR form for the whole
// figure: every series reuses the snapshots, and no mutable substrate
// graph is ever materialized.
func makeSubstrates(n int, sc Scale, seed uint64) ([]*graph.Frozen, error) {
	subs := make([]*graph.Frozen, sc.Realizations)
	// Strict supervision (no partial flag): every series of the figure
	// needs every substrate, so a permanently failed build is fatal.
	err := runPool(sc, engineJob[*graph.Frozen]{seed: seed, build: func(r int, b *builder) (*graph.Frozen, error) {
		f, _, err := gen.GRNFrozen(gen.GRNConfig{N: n, MeanDegree: 10}, b.gen())
		subs[r] = f
		return f, err
	}})
	return subs, err
}

// cutoffLabel renders kc the way the paper's legends do.
func cutoffLabel(kc int) string {
	if kc == gen.NoCutoff {
		return "no kc"
	}
	return fmt.Sprintf("kc=%d", kc)
}

// degreeRun is one series of a degree batch: the realizations factory
// builds from seed, whose degree distributions merge into one. tag names
// the series in the journal (series label plus any knob that varies under
// a shared seed); label is its legend.
type degreeRun struct {
	tag, label string
	factory    topoFactory
	seed       uint64
}

// degreeCodec journals a realization's degree histogram and reduces it to
// its distribution the moment it lands.
var degreeCodec = blockCodec[[]int, stats.DegreeDist]{
	kind: recDegreeHist, encode: appendHistogram, reduce: stats.NewDegreeDist,
	decode: func(p []byte) (stats.DegreeDist, bool) {
		hist, ok := decodeHistogram(p)
		if !ok {
			return stats.DegreeDist{}, false
		}
		return stats.NewDegreeDist(hist), true
	},
}

// mergedDegreeDists generates sc.Realizations networks per run, all runs on
// one lane pool (realizationBatch), and merges each run's degree
// distributions, the paper's averaging procedure ("for every data point 10
// different realizations of the network have been used"). An absent
// realization merges with zero weight (MergeDegreeDists weights by node
// count).
func mergedDegreeDists(sc Scale, runs ...degreeRun) ([]stats.DegreeDist, error) {
	builds := make([]blockBuild[[]int, []int, stats.DegreeDist], len(runs))
	for i, run := range runs {
		builds[i] = shared(run.tag, run.seed, func(r int, b *builder) ([]int, error) {
			f, err := run.factory(r, b)
			if err != nil {
				return nil, err
			}
			// The lane minted f and nothing reads it past the histogram,
			// so it goes back to the arena for a later build to refill.
			hist := f.DegreeHistogram()
			b.arena.Recycle(f)
			return hist, nil
		}, journaled[[]int](run.tag, degreeCodec, nil))
	}
	dists, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	merged := make([]stats.DegreeDist, len(runs))
	for i := range runs {
		merged[i] = stats.MergeDegreeDists(dists[i][0])
	}
	return merged, nil
}

// degreeSeries log-bins a degree distribution into a plot series
// (bin ratio 1.3, smooth enough for the paper's log-log panels).
func degreeSeries(label string, d stats.DegreeDist) (Series, error) {
	pts, err := stats.LogBin(d, 1.3)
	if err != nil {
		return Series{}, fmt.Errorf("bin %s: %w", label, err)
	}
	s := Series{Label: label, Points: make([]Point, len(pts))}
	for i, p := range pts {
		s.Points[i] = Point{X: p.K, Y: p.P}
	}
	return s, nil
}

// algKind selects the search algorithm of a searchRun.
type algKind int

const (
	algFL algKind = iota + 1
	algNF
	algRW // random walk normalized to the NF message budget (§V-B)
)

func (a algKind) String() string {
	switch a {
	case algFL:
		return "FL"
	case algNF:
		return "NF"
	case algRW:
		return "RW"
	default:
		return fmt.Sprintf("algKind(%d)", int(a))
	}
}

// searchRun is one series of a search batch: its legend, the realizations
// factory builds from seed, and the search alg it sweeps on them to maxTTL
// hops. kMin is the NF/RW fan-out, the topology's stub count m: the paper
// runs NF "based on the predefined minimum degree value m". tag (may be
// empty) prefixes the journal key of series that share both a seed and a
// label format (fig9's PA and HAPA m=1 panels; see searchBatch).
type searchRun struct {
	label, tag   string
	factory      topoFactory
	alg          algKind
	maxTTL, kMin int
	seed         uint64
}

// runSearch dispatches one NF or RW search on the per-worker scratch (FL
// sweeps run through sweeper.FloodSources). The Result aliases the
// scratch: consume it before the next search.
func (run searchRun) runSearch(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG) (search.Result, error) {
	switch run.alg {
	case algNF:
		return scratch.NormalizedFlood(f, src, run.maxTTL, run.kMin, rng)
	case algRW:
		res, _, err := scratch.RandomWalkWithNFBudget(f, src, run.maxTTL, run.kMin, rng)
		return res, err
	default:
		return search.Result{}, fmt.Errorf("sim: unknown algorithm %v", run.alg)
	}
}

// searchBatch measures mean hits vs τ for every run on one lane pool
// (realizationBatch): sc.Realizations topologies from each run's factory,
// sc.Sources random sources each, averaged per τ with error bars across
// realizations, as series of x = τ (1..maxTTL), y = mean hits. algRW hits
// follow the paper's normalization: a walk of as many steps as NF sent
// messages at that τ. A run journals under tag + ": " + label: the label
// tells apart series that share a seed, the tag panels that share both.
func searchBatch(sc Scale, runs ...searchRun) ([]Series, error) {
	builds := make([]blockBuild[*graph.Frozen, [][]float64, [][]float64], len(runs))
	for i, run := range runs {
		tag := run.label
		if run.tag != "" {
			tag = run.tag + ": " + run.label
		}
		builds[i] = minted(shared("series "+run.label, run.seed, run.factory, sweepSeries(sc, recSweepSlots, tag, 1, run.maxTTL+1,
			func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error {
				if run.alg == algFL {
					// FL draws nothing but its source node, so whole runs of
					// sources share one bit-parallel flood.
					return sw.FloodSources(uint64(r), len(rows), f, run.maxTTL, func(s int, res search.Result) { hitsRow(res, rows[s]) })
				}
				return sw.eachSource(r, f, rows, 1, func(_ int, scratch *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error {
					res, err := run.runSearch(scratch, f, src, rng)
					if err == nil {
						hitsRow(res, curves[0])
					}
					return err
				})
			})))
	}
	means, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(runs))
	for i, run := range runs {
		if out[i], err = aggregate(run.label, blockRow(means[i][0], 0), 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hitsRow fills row[t] with the result's hits within t hops.
func hitsRow(res search.Result, row []float64) {
	for t := range row {
		row[t] = float64(res.HitsAt(t))
	}
}

// sweepSeries is one series of a source sweep, search or DES: tag names it
// in the journal's record family kind, and sweep fills realization r's
// block of nCurves × sc.Sources rows of rowLen values, curve-major — source
// s's curve c goes to rows[c*sc.Sources+s], whatever shard computed it. The
// block is the sweeper's, reused for the next series and realization: it is
// reduced to its nCurves mean rows as it lands (rowMeans; blockRow picks
// one curve's rows across realizations).
func sweepSeries(sc Scale, kind uint8, tag string, nCurves, rowLen int,
	sweep func(r int, f *graph.Frozen, sw *sweeper, rows [][]float64) error) blockSeries[*graph.Frozen, [][]float64, [][]float64] {
	return journaled(tag, rowMeans(kind, nCurves, sc.Sources, rowLen), func(r int, f *graph.Frozen, sw *sweeper) ([][]float64, error) {
		rows := sw.block(nCurves*sc.Sources, rowLen)
		return rows, sweep(r, f, sw, rows)
	})
}

// eachSource runs a per-source query over realization r's block of
// nCurves curve-major curves: source s draws its node and all its
// randomness from the (seed, r, s) stream, and query writes curve c into
// curves[c], which is rows[c*sources+s]. A one-curve block hands query its
// row in place, with no per-source allocation.
func (sw *sweeper) eachSource(r int, f *graph.Frozen, rows [][]float64, nCurves int,
	query func(shard int, scratch *search.Scratch, src int, rng *xrand.RNG, curves [][]float64) error) error {
	sources := len(rows) / nCurves
	return sw.Sources(uint64(r), sources, func(shard, s int, rng *xrand.RNG, scratch *search.Scratch) error {
		curves := rows[s : s+1 : s+1]
		if nCurves > 1 {
			curves = make([][]float64, nCurves)
			for c := range curves {
				curves[c] = rows[c*sources+s]
			}
		}
		return query(shard, scratch, rng.Intn(f.N()), rng, curves)
	})
}

// slabRows points every row of a block at its own rowLen values of slab —
// one backing array per block instead of one per row — and returns rows.
// Each row's capacity ends where the next row begins, so an append to a row
// cannot write into its neighbour.
func slabRows(rows [][]float64, slab []float64, rowLen int) [][]float64 {
	for s := range rows {
		rows[s] = slab[s*rowLen : (s+1)*rowLen : (s+1)*rowLen]
	}
	return rows
}

// meanCurves reduces one realization's block of nCurves curves × sources
// rows (curve-major) to the nCurves mean rows, summing each curve's rows in
// row order so the result is bit-for-bit independent of how the sweep was
// scheduled.
func meanCurves(rows [][]float64, nCurves int) [][]float64 {
	sources := len(rows) / nCurves
	means := make([][]float64, nCurves)
	for c := range means {
		curve := rows[c*sources : (c+1)*sources]
		sums := make([]float64, len(curve[0]))
		for _, row := range curve {
			for t := range sums {
				sums[t] += row[t]
			}
		}
		for t := range sums {
			sums[t] /= float64(sources)
		}
		means[c] = sums
	}
	return means
}

// blockRow picks row c of every realization's block (nil where absent).
func blockRow(blocks [][][]float64, c int) [][]float64 {
	rows := make([][]float64, len(blocks))
	for r, blk := range blocks {
		if blk != nil {
			rows[r] = blk[c]
		}
	}
	return rows
}

// firstRow returns the first present realization's row: the shared x axis
// when realizations carry it in their blocks. Nil when every one is absent.
func firstRow(rows [][]float64) []float64 {
	for _, row := range rows {
		if row != nil {
			return row
		}
	}
	return nil
}

// at returns point i re-plotted at x — the mean ± σ of column i when the
// realizations' rows hold scalars rather than a curve.
func (s Series) at(i int, x float64) Point {
	p := s.Points[i]
	p.X = x
	return p
}

// withX replaces a series' positional x values, as aggregate numbers them,
// with the axis the spec plots against.
func (s Series) withX(xs []float64) Series {
	for i := range s.Points {
		s.Points[i].X = xs[i]
	}
	return s
}

// aggregate converts per-realization curves (indexed from 0) into a Series
// starting at x = firstX, with mean and stddev across realizations. Nil
// entries are dropped realizations (budgeted permanent failures); the
// survivors aggregate in realization order, and a run with no failures is
// bit-identical to the pre-supervision reduction.
func aggregate(label string, perReal [][]float64, firstX int) (Series, error) {
	rows := make([][]float64, 0, len(perReal))
	for _, row := range perReal {
		if row != nil {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return Series{}, fmt.Errorf("sim: no data for series %s", label)
	}
	n := len(rows[0])
	s := Series{Label: label}
	col := make([]float64, len(rows))
	for t := firstX; t < n; t++ {
		for r := range rows {
			col[r] = rows[r][t]
		}
		s.Points = append(s.Points, Point{
			X:   float64(t),
			Y:   stats.Mean(col),
			Err: stats.StdDev(col),
		})
	}
	return s, nil
}

// cutoffCurve is one series of exponentVsCutoff: its legend, its factory
// for a hard cutoff kc, and the seed its i-th cutoff offsets by i·1000.
type cutoffCurve struct {
	label string
	mk    func(kc int) topoFactory
	seed  uint64
}

// exponentVsCutoff measures, for each curve, the fitted degree exponent as
// a function of the hard cutoff — the engine behind Figs. 1(c) and 4(g) —
// with every (curve, cutoff) distribution on one lane pool. The fit
// includes the accumulation spike at kc, as the paper's measurement does
// ("when the jump on the hard cutoffs is taken into account").
func exponentVsCutoff(sc Scale, cutoffs []int, curves ...cutoffCurve) ([]Series, error) {
	var runs []degreeRun
	for _, c := range curves {
		for i, kc := range cutoffs {
			runs = append(runs, degreeRun{tag: fmt.Sprintf("%s kc=%d", c.label, kc), factory: c.mk(kc), seed: c.seed + uint64(i)*1000})
		}
	}
	dists, err := mergedDegreeDists(sc, runs...)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(curves))
	for ci, c := range curves {
		out[ci].Label = c.label
		for i, kc := range cutoffs {
			fit, err := stats.FitPowerLawBinned(dists[ci*len(cutoffs)+i], 1.5, 1, 0)
			if err != nil {
				return nil, fmt.Errorf("%s kc=%d fit: %w", c.label, kc, err)
			}
			out[ci].Points = append(out[ci].Points, Point{X: float64(kc), Y: fit.Gamma, Err: fit.StdErr})
		}
	}
	return out, nil
}

// panelBatch collects a spec's series panel by panel, so that they all run
// as one batch on one lane pool and are filed back under their panels in
// declaration order.
type panelBatch[Run any] struct {
	figs []Figure
	runs []Run
	of   []int // of[i] is the index in figs of run i's panel
}

// panel opens a figure; the runs added next are its series.
func (pb *panelBatch[Run]) panel(fig Figure) { pb.figs = append(pb.figs, fig) }

// add declares a series of the open panel.
func (pb *panelBatch[Run]) add(run Run) {
	pb.runs = append(pb.runs, run)
	pb.of = append(pb.of, len(pb.figs)-1)
}

// file appends series[i], run i's result, to its panel and returns the
// figures.
func (pb *panelBatch[Run]) file(series []Series) []Figure {
	for i, s := range series {
		fig := &pb.figs[pb.of[i]]
		fig.Series = append(fig.Series, s)
	}
	return pb.figs
}

// degreePanels runs a degree spec's panels as one batch: each series is
// its run's merged distribution, log-binned under its label.
func degreePanels(sc Scale, pb *panelBatch[degreeRun]) ([]Figure, error) {
	dists, err := mergedDegreeDists(sc, pb.runs...)
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(dists))
	for i, d := range dists {
		if series[i], err = degreeSeries(pb.runs[i].label, d); err != nil {
			return nil, err
		}
	}
	return pb.file(series), nil
}

// searchPanels runs a search spec's panels as one batch (searchBatch).
func searchPanels(sc Scale, pb *panelBatch[searchRun]) ([]Figure, error) {
	series, err := searchBatch(sc, pb.runs...)
	if err != nil {
		return nil, err
	}
	return pb.file(series), nil
}
