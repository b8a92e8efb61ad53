package sim

import (
	"fmt"
	"strings"

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
// parallelism budget, and the build worker's CSR arena, so a factory
// invoked on any pipeline worker with any GenWorkers value produces the
// identical topology.
//
// Two build paths hide behind this type. The growth models (PA, HAPA,
// DAPA) need mid-build HasEdge/Degree, so they grow a mutable Graph and
// freeze it here, in the pipelined build stage — the Graph's per-node
// slices become garbage before the search sweep starts. CM (and the GRN
// substrates) never query the graph mid-build, so they emit straight into
// a graph.CSRBuilder and no mutable Graph ever exists.
//
// The sorted HasEdge ranges are NOT part of the factory contract:
// degree-only consumers (mergedDegreeDist, fairness, table1) never probe
// membership and would pay an O(E) sorted build per realization for
// nothing. Sweep specs route factories through sweepTopo, which
// materializes the ranges in the build stage; CM snapshots carry them
// anyway (the cleanup pass yields them for free).
type topoFactory func(r int, b *builder) (*graph.Frozen, error)

// sweepTopo adapts a factory into a pipeline build callback that delivers
// sweep-ready snapshots: the sorted membership ranges are materialized
// here, in the pipelined build stage, so a sweep that probes HasEdge can
// never take (or contend on) the lazy-init path.
func sweepTopo(factory topoFactory, r int, b *builder) (*graph.Frozen, error) {
	f, err := factory(r, b)
	if err != nil {
		return nil, err
	}
	f.MaterializeSorted(b.genWorkers)
	return f, nil
}

func paTopo(n, m, kc int) topoFactory {
	return func(_ int, b *builder) (*graph.Frozen, error) {
		g, _, err := gen.PABuild(gen.PAConfig{N: n, M: m, KC: kc}, b.gen())
		if err != nil {
			return nil, err
		}
		return g.FreezePar(b.genWorkers), nil
	}
}

func hapaTopo(n, m, kc int) topoFactory {
	return func(_ int, b *builder) (*graph.Frozen, error) {
		g, _, err := gen.HAPABuild(gen.HAPAConfig{N: n, M: m, KC: kc}, b.gen())
		if err != nil {
			return nil, err
		}
		return g.FreezePar(b.genWorkers), nil
	}
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
		return ov.G.FreezePar(b.genWorkers), nil
	}
}

// makeSubstrates generates one GRN substrate per realization with the
// paper's parameters (k̄ = 10), built straight into CSR form for the whole
// figure: every series reuses the snapshots, and no mutable substrate
// graph is ever materialized. Substrates serve only Neighbors scans
// (DAPA's discovery floods), so the sorted ranges stay lazy.
func makeSubstrates(n int, sc Scale, seed uint64) ([]*graph.Frozen, error) {
	subs := make([]*graph.Frozen, sc.Realizations)
	// Strict supervision (no partial flag): every series of the figure
	// needs every substrate, so a permanently failed build is fatal.
	err := forEachRealization(engineOpts{rc: sc.Run}, sc.Workers, sc.GenWorkers, sc.Realizations, seed, func(r int, b *builder) error {
		f, _, err := gen.GRNFrozen(gen.GRNConfig{N: n, MeanDegree: 10}, b.gen())
		if err != nil {
			return err
		}
		subs[r] = f
		return nil
	})
	return subs, err
}

// cutoffLabel renders kc the way the paper's legends do.
func cutoffLabel(kc int) string {
	if kc == gen.NoCutoff {
		return "no kc"
	}
	return fmt.Sprintf("kc=%d", kc)
}

// mergedDegreeDist generates sc.Realizations networks and merges their
// degree distributions, the paper's averaging procedure ("for every data
// point 10 different realizations of the network have been used"). tag
// names this sweep in the journal (series label plus any knob that varies
// under a shared seed); a journaled realization's histogram is replayed
// verbatim and its build skipped, and realizations that permanently
// failed within the budget merge with zero weight (MergeDegreeDists
// weights by node count).
func mergedDegreeDist(tag string, factory topoFactory, sc Scale, seed uint64) (stats.DegreeDist, error) {
	rc := sc.Run
	sub := journalTag(tag)
	if err := rc.journalClaim(recDegreeHist, seed, sub, tag); err != nil {
		return stats.DegreeDist{}, err
	}
	dists := make([]stats.DegreeDist, sc.Realizations)
	var skip func(int) bool
	if rc.journaling() {
		done := make(map[int]bool, sc.Realizations)
		for r := 0; r < sc.Realizations; r++ {
			p, ok := rc.journalPayload(recDegreeHist, seed, sub, r)
			if !ok {
				continue
			}
			hist, ok := decodeHistogram(p)
			if !ok {
				continue // shape drift: treat as not completed, rebuild
			}
			dists[r] = stats.NewDegreeDist(hist)
			done[r] = true
		}
		if len(done) > 0 {
			skip = func(r int) bool { return done[r] }
		}
	}
	err := forEachRealization(engineOpts{rc: rc, skip: skip, partial: true}, sc.Workers, sc.GenWorkers, sc.Realizations, seed, func(r int, b *builder) error {
		f, err := factory(r, b)
		if err != nil {
			return err
		}
		hist := f.DegreeHistogram()
		dists[r] = stats.NewDegreeDist(hist)
		if rc.journaling() {
			rc.journalAppend(recDegreeHist, seed, sub, r, encodeHistogram(hist))
		}
		return nil
	})
	if err != nil {
		return stats.DegreeDist{}, err
	}
	for r := range rc.failedSet(seed) {
		dists[r] = stats.DegreeDist{} // zero node weight: drops out of the merge
	}
	return stats.MergeDegreeDists(dists), nil
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

// algKind selects the search algorithm for searchSeries.
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

// searchCfg bundles the parameters of one search-efficiency series.
type searchCfg struct {
	alg          algKind
	maxTTL       int
	kMin         int // NF fan-out; the paper uses the prescribed m
	sources      int
	realizations int
	workers      int         // concurrent sweeps; 0 = GOMAXPROCS
	sourceShards int         // concurrent sources per realization; 0 = automatic
	genWorkers   int         // pipelined build-stage bound; 0 = match workers
	run          *RunControl // supervision + journal; nil = unsupervised
	tag          string      // journal-key prefix for panels whose series labels repeat across shared seeds (see sweepSeries)
}

// withTag returns the config with a journal-key prefix. Required when two
// series in one spec share both an engine seed and a label format (e.g.
// fig9's PA and HAPA m=1 panels): the prefix keeps their checkpoint keys
// distinct so a resume cannot replay one panel's rows into the other.
func (cfg searchCfg) withTag(tag string) searchCfg {
	cfg.tag = tag
	return cfg
}

// searchCfg wires a series configuration to the scale's workload and
// scheduler knobs (plus the run supervisor), so every spec passes
// Workers, SourceShards, GenWorkers, and Run through uniformly.
func (sc Scale) searchCfg(alg algKind, maxTTL, kMin int) searchCfg {
	return searchCfg{
		alg: alg, maxTTL: maxTTL, kMin: kMin,
		sources: sc.Sources, realizations: sc.Realizations,
		workers: sc.Workers, sourceShards: sc.SourceShards,
		genWorkers: sc.GenWorkers, run: sc.Run,
	}
}

// runSearch dispatches one search on the per-worker scratch. The Result
// aliases the scratch: consume it before the next search.
func (cfg searchCfg) runSearch(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG) (search.Result, error) {
	switch cfg.alg {
	case algFL:
		return scratch.Flood(f, src, cfg.maxTTL)
	case algNF:
		return scratch.NormalizedFlood(f, src, cfg.maxTTL, cfg.kMin, rng)
	case algRW:
		res, _, err := scratch.RandomWalkWithNFBudget(f, src, cfg.maxTTL, cfg.kMin, rng)
		return res, err
	default:
		return search.Result{}, fmt.Errorf("sim: unknown algorithm %v", cfg.alg)
	}
}

// searchSeries measures mean hits vs τ: `realizations` topologies from the
// factory, `sources` random sources each, averaged per τ with error bars
// across realizations. The returned series has x = τ (1..maxTTL) and
// y = mean number of hits. For algRW, hits follow the paper's
// normalization: a walk of as many steps as NF sent messages at that τ.
//
// The source sweep of each realization is sharded across
// cfg.sourceShards goroutines sharing the frozen topology: source s draws
// its own source node and all search randomness from the (seed, r, s)
// stream, and its curve lands in slot (r, s), reduced in source order.
func searchSeries(label string, factory topoFactory, cfg searchCfg, seed uint64) (Series, error) {
	return sweepSeries(label, factory, cfg, seed, func(res search.Result, row []float64) {
		for t := range row {
			row[t] = float64(res.HitsAt(t))
		}
	})
}

// messageSeries is searchSeries for messaging complexity: y = mean number
// of messages per search request at each τ (§V-B2). The "msgs" journal
// prefix keeps its checkpoints apart from a hits series over the same
// label and seed — Messaging measures both from one configuration, and
// without the prefix their records would overwrite each other.
func messageSeries(label string, factory topoFactory, cfg searchCfg, seed uint64) (Series, error) {
	cfg = cfg.withTag(strings.TrimSpace("msgs " + cfg.tag))
	return sweepSeries(label, factory, cfg, seed, func(res search.Result, row []float64) {
		for t := range row {
			row[t] = float64(res.MessagesAt(t))
		}
	})
}

// sweepSeries is the shared engine of searchSeries and messageSeries,
// run through the three-stage pipeline: the build stage generates and
// freezes each realization (sorted ranges included) while the sweep stage
// fans an earlier realization's sources out across the shard pool; the
// per-(realization, source) curves land in index slots and reduce
// deterministically.
//
// Under a journaling RunControl each completed realization's source rows
// are checkpointed keyed by (seed, hash(cfg.tag + label), r) — the label
// disambiguates series that share an engine seed, and cfg.tag
// disambiguates panels that share both (journal.claim fails loudly if a
// collision slips through anyway) — resumed realizations
// replay those exact bits and skip the engine, and realizations that
// permanently failed within the budget are dropped from the reduction
// with explicit accounting upstream.
func sweepSeries(label string, factory topoFactory, cfg searchCfg, seed uint64, sample func(res search.Result, row []float64)) (Series, error) {
	rc := cfg.run
	rowLen := cfg.maxTTL + 1
	jl := label
	if cfg.tag != "" {
		jl = cfg.tag + ": " + label
	}
	sub := journalTag(jl)
	if err := rc.journalClaim(recSweepSlots, seed, sub, jl); err != nil {
		return Series{}, err
	}
	perSource := make([][]float64, cfg.realizations*cfg.sources)
	skip := replayRowBlocks(rc, recSweepSlots, seed, sub, cfg.realizations, cfg.sources, rowLen, func(r int, rows [][]float64) {
		copy(perSource[r*cfg.sources:(r+1)*cfg.sources], rows)
	})
	err := forEachRealizationPipeline(engineOpts{rc: rc, skip: skip, partial: true},
		cfg.workers, cfg.sourceShards, cfg.genWorkers, cfg.realizations, seed,
		func(r int, b *builder) (*graph.Frozen, error) {
			return sweepTopo(factory, r, b)
		},
		func(r int, f *graph.Frozen, sw *sweeper) error {
			deposit := func(s int, res search.Result) {
				row := make([]float64, rowLen)
				sample(res, row)
				perSource[r*cfg.sources+s] = row
			}
			var err error
			if cfg.alg == algFL {
				// FL draws nothing but its source node, so whole runs of
				// sources share one bit-parallel flood.
				err = sw.FloodSources(uint64(r), cfg.sources, f, cfg.maxTTL, deposit)
			} else {
				err = sw.Sources(uint64(r), cfg.sources, func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
					res, err := cfg.runSearch(scratch, f, rng.Intn(f.N()), rng)
					if err != nil {
						return err
					}
					deposit(s, res)
					return nil
				})
			}
			if err != nil {
				return err
			}
			if rc.journaling() {
				rc.journalAppend(recSweepSlots, seed, sub, r,
					encodeRowBlock(perSource[r*cfg.sources:(r+1)*cfg.sources], rowLen))
			}
			return nil
		})
	if err != nil {
		return Series{}, fmt.Errorf("series %s: %w", label, err)
	}
	for r := range rc.failedSet(seed) {
		for s := 0; s < cfg.sources; s++ {
			perSource[r*cfg.sources+s] = nil // partial attempt bits must not average in
		}
	}
	return aggregate(label, meanRows(perSource, cfg.realizations, cfg.sources), 1)
}

// replayRowBlocks restores journaled row-block records into a sweep's
// slot array and returns the engine skip function covering them; nil when
// nothing is replayable (not journaling, or no matching records).
func replayRowBlocks(rc *RunControl, kind uint8, stream, sub uint64, realizations, nRows, rowLen int, restore func(r int, rows [][]float64)) func(int) bool {
	if !rc.journaling() {
		return nil
	}
	done := make(map[int]bool, realizations)
	for r := 0; r < realizations; r++ {
		p, ok := rc.journalPayload(kind, stream, sub, r)
		if !ok {
			continue
		}
		rows, ok := decodeRowBlock(p, nRows, rowLen)
		if !ok {
			continue // shape drift: treat as not completed, recompute
		}
		restore(r, rows)
		done[r] = true
	}
	if len(done) == 0 {
		return nil
	}
	return func(r int) bool { return done[r] }
}

// meanRows reduces per-(realization, source) rows (slot layout
// r*sources+s) to per-realization means, summing in source order so the
// result is bit-for-bit independent of how the sweep was scheduled. A
// realization with any nil row (permanently failed within the budget,
// cleared by the caller) reduces to a nil entry, which aggregate then
// drops — the accumulation order over surviving rows is unchanged, so a
// failure-free reduction is bit-identical to the unsupervised one.
func meanRows(perSource [][]float64, realizations, sources int) [][]float64 {
	perReal := make([][]float64, realizations)
	for r := range perReal {
		var sums []float64
		dropped := false
		for s := 0; s < sources; s++ {
			row := perSource[r*sources+s]
			if row == nil {
				dropped = true
				break
			}
			if sums == nil {
				sums = make([]float64, len(row))
			}
			for t := range sums {
				sums[t] += row[t]
			}
		}
		if dropped || sums == nil {
			continue
		}
		for t := range sums {
			sums[t] /= float64(sources)
		}
		perReal[r] = sums
	}
	return perReal
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

// exponentVsCutoff measures the fitted degree exponent as a function of the
// hard cutoff for a factory parameterized by kc — the engine behind
// Figs. 1(c) and 4(g). The fit includes the accumulation spike at kc, as
// the paper's measurement does ("when the jump on the hard cutoffs is
// taken into account").
func exponentVsCutoff(label string, mk func(kc int) topoFactory, cutoffs []int, sc Scale, seed uint64) (Series, error) {
	s := Series{Label: label}
	for i, kc := range cutoffs {
		d, err := mergedDegreeDist(fmt.Sprintf("%s kc=%d", label, kc), mk(kc), sc, seed+uint64(i)*1000)
		if err != nil {
			return Series{}, fmt.Errorf("%s kc=%d: %w", label, kc, err)
		}
		fit, err := stats.FitPowerLawBinned(d, 1.5, 1, 0)
		if err != nil {
			return Series{}, fmt.Errorf("%s kc=%d fit: %w", label, kc, err)
		}
		s.Points = append(s.Points, Point{X: float64(kc), Y: fit.Gamma, Err: fit.StdErr})
	}
	return s, nil
}
