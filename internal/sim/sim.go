// Package sim is the experiment harness that regenerates every table and
// figure in the paper's evaluation. Each artifact (Fig. 1a … Fig. 12,
// Table I, Table II, plus the messaging-complexity study of §V-B2) has a
// registered spec that builds the topologies, runs the searches, averages
// over realizations and sources, and returns plot-ready series.
//
// Scale is a knob: PaperScale reproduces the paper's parameters
// (N=10⁵ degree distributions, N=10⁴ search topologies, 10 realizations);
// SmokeScale shrinks everything so the full suite runs in seconds for CI
// and benchmarks. Shapes — who wins, crossover locations, exponent trends —
// are preserved at both scales; EXPERIMENTS.md records the comparison.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"scalefree/internal/des"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// Scale sets the size of every experiment. Validate is its one range
// check; the specs and kernels trust a Scale that passed it.
type Scale struct {
	// NDegree is the node count for degree-distribution experiments
	// (paper: 10⁵).
	NDegree int
	// NSearch is the node count for search experiments (paper: 10⁴).
	NSearch int
	// NSubstrate is the DAPA substrate size (paper: 2·10⁴).
	NSubstrate int
	// NOverlay is the DAPA overlay target (paper: 10⁴).
	NOverlay int
	// Realizations is the number of independent networks averaged per
	// data point (paper: 10).
	Realizations int
	// Sources is the number of random search sources averaged per
	// topology.
	Sources int
	// MaxTTLFlood bounds τ for flooding experiments. The paper sweeps "up
	// to the point we reach the system size": 20 for PA/HAPA and 30 for CM
	// (fig8's DAPA overlays sweep 3·MaxTTLFlood, the paper's 100).
	MaxTTLFlood int
	// MaxTTLNF bounds τ for NF/RW experiments (paper: 10).
	MaxTTLNF int
	// Workers is the run's parallelism budget P; 0 (the default) means
	// GOMAXPROCS. The engine derives its whole schedule from it: over R
	// realizations, min(P, R) lanes each build and sweep one realization
	// at a time, and each realization gets ceil(P / min(P, R)) goroutines
	// inside its generator (chunked CM degree sampling, GRN placement and
	// radius queries, batched DAPA horizon floods) and as source shards
	// sweeping the shared frozen topology — so when realizations are
	// scarce (the paper's 10 on a big box) the budget flows into each
	// one. At most 3·min(P, R) snapshots are alive at once. Results are
	// bit-for-bit identical for any Workers: every build draws from xrand
	// phase streams derived solely from (seed, realization, phase) with
	// fixed chunk boundaries, source s of realization r draws from a
	// stream derived solely from (seed, r, s), and per-index results are
	// reduced in index order.
	Workers int
	// DESLatencyBase and DESLatencyJitter set the per-edge latency model of
	// the DES specs: each edge's delay is Base + Jitter·U(edge), with U
	// derived from the realization's phase streams. Both zero (the default)
	// selects Base=1, Jitter=1.
	DESLatencyBase, DESLatencyJitter float64
	// DESLoss, when positive, pins the DES specs to that single message
	// loss rate; zero sweeps the default series {0, 0.02, 0.10}.
	DESLoss float64
	// DESFailFrac, when positive, pins the desfail spec to that single
	// failure fraction; zero sweeps the default series {0, 0.10, 0.20,
	// 0.30}.
	DESFailFrac float64
	// DESFailMTBF sets the mean time before a selected element goes down
	// (for good) in the desfail spec; zero selects the default of 2 time
	// units (mid-flight under the default unit-latency model).
	DESFailMTBF float64
	// BCPivots bounds the Brandes–Pich pivot sample behind the attack
	// spec's betweenness-attack series (batched: one pivot pass per
	// measurement step, nodes removed in descending estimated score). 0
	// selects metrics.DefaultBetweennessPivots (64); values >= N price
	// every step with exact Brandes. Like every estimator knob it changes
	// the published numbers, so it is pinned in the journal header.
	BCPivots int
	// PathLandmarks, when positive, switches table1's path-length
	// measurement from exact sampled-source BFS to the landmark estimator
	// (graph.LandmarkPathStats): that many hub BFS passes price
	// PathPairs sampled pairs by triangle inequality. Zero keeps the
	// exact measurement.
	PathLandmarks int
	// PathPairs is the number of sampled node pairs per realization for
	// the landmark estimator; 0 selects 2000.
	PathPairs int
	// WalkCap, when positive, caps the delivery spec's per-pair
	// random-walk budget at min(200·N, WalkCap) steps. Truncated walks
	// (budget exhausted before delivery) are excluded from the delivery-
	// time means and accounted explicitly in the figure notes. Zero keeps
	// the paper's uncapped 200·N budget.
	WalkCap int
	// Run supervises the realization engine: panic recovery, bounded
	// retries, failure budgets, checkpoint/resume via the journal, and
	// realization-boundary interruption. nil (the default) runs
	// unsupervised. Run NEVER affects the numbers — retries re-derive
	// pristine per-realization streams and replayed checkpoints are the
	// original bits — it only decides whether a run survives failures and
	// where it may stop.
	Run *RunControl
}

// PaperScale reproduces the paper's simulation parameters.
var PaperScale = Scale{
	NDegree:      100_000,
	NSearch:      10_000,
	NSubstrate:   20_000,
	NOverlay:     10_000,
	Realizations: 10,
	Sources:      50,
	MaxTTLFlood:  30,
	MaxTTLNF:     10,
}

// SmokeScale is a reduced configuration for CI and benchmarks; every
// qualitative trend survives at this size.
var SmokeScale = Scale{
	NDegree:      8_000,
	NSearch:      3_000,
	NSubstrate:   6_000,
	NOverlay:     3_000,
	Realizations: 3,
	Sources:      12,
	MaxTTLFlood:  20,
	MaxTTLNF:     8,
}

// XLScale pushes an order of magnitude past the paper: 10⁶-node degree
// distributions and 10⁵-node search topologies. It is sized for the
// CSR-frozen read path — each realization is frozen right after
// generation, so the search sweep holds only the flat offsets/neighbors
// arrays (~8 bytes per adjacency entry) instead of the generator's
// per-node slices. Realizations are reduced to 3: at 10⁶ nodes a single
// realization's degree distribution is already smooth.
// See EXPERIMENTS.md ("Scales" and "Performance model") for the memory
// arithmetic and the recommended per-experiment subsets.
var XLScale = Scale{
	NDegree:      1_000_000,
	NSearch:      100_000,
	NSubstrate:   200_000,
	NOverlay:     100_000,
	Realizations: 3,
	Sources:      20,
	MaxTTLFlood:  30,
	MaxTTLNF:     10,
	// Estimator budgets that make the measurements of attack, table1 and
	// delivery sublinear in N. Growth is not covered: HAPA under a cutoff
	// still builds in Θ(N²) time (EXPERIMENTS.md "Scales"); see
	// "Estimators & budgets" there.
	BCPivots:      64,
	PathLandmarks: 16,
	PathPairs:     2_000,
	WalkCap:       2_000_000,
}

// Validate reports the first workload knob out of range, naming the field
// and, where one sets it, the experiments flag. Every count must be >= 0,
// and Realizations, Sources, MaxTTLFlood and MaxTTLNF >= 1: a series needs
// a realization, a source and a hop to measure anything. DESLoss and
// DESFailFrac must lie in [0, 1), and the DES latency and MTBF knobs must
// be finite and >= 0. Zero keeps every other knob's default meaning, and
// NaN fails every rule. It is the one check of a workload:
// cmd/experiments runs it before any spec or coordinator starts, and a
// coordinator's worker before it runs a lease.
func (sc Scale) Validate() error {
	for _, k := range []struct {
		name   string
		v, min int
	}{
		{"NDegree", sc.NDegree, 0}, {"NSearch", sc.NSearch, 0},
		{"NSubstrate", sc.NSubstrate, 0}, {"NOverlay", sc.NOverlay, 0},
		{"Realizations", sc.Realizations, 1}, {"Sources", sc.Sources, 1},
		{"MaxTTLFlood", sc.MaxTTLFlood, 1}, {"MaxTTLNF", sc.MaxTTLNF, 1},
		{"Workers (-workers)", sc.Workers, 0}, {"BCPivots (-bc-pivots)", sc.BCPivots, 0},
		{"PathLandmarks (-path-landmarks)", sc.PathLandmarks, 0},
		{"PathPairs (-path-pairs)", sc.PathPairs, 0}, {"WalkCap (-walk-cap)", sc.WalkCap, 0},
	} {
		if k.v < k.min {
			return fmt.Errorf("sim: %s %d must be >= %d", k.name, k.v, k.min)
		}
	}
	// A negative delay delivers a copy before it is sent, NaN leaves the
	// event heap's order (and every RNG draw) arbitrary, and an infinite
	// MTBF puts every onset at +Inf, silently disabling the failures.
	for _, k := range []struct {
		name string
		v    float64
		frac bool // in [0, 1); otherwise finite and >= 0
	}{
		{"DESLoss (-loss)", sc.DESLoss, true}, {"DESFailFrac (-fail-frac)", sc.DESFailFrac, true},
		{"DESLatencyBase (-latency-base)", sc.DESLatencyBase, false},
		{"DESLatencyJitter (-latency-jitter)", sc.DESLatencyJitter, false},
		{"DESFailMTBF (-fail-mtbf)", sc.DESFailMTBF, false},
	} {
		switch {
		case k.frac && !(k.v >= 0 && k.v < 1):
			return fmt.Errorf("sim: %s %v out of range [0, 1)", k.name, k.v)
		case !k.frac && !(k.v >= 0 && k.v <= math.MaxFloat64):
			return fmt.Errorf("sim: %s %v must be finite and >= 0", k.name, k.v)
		}
	}
	return nil
}

// Figure is one regenerated paper artifact: a set of labeled series plus
// axis metadata, renderable as CSV or an ASCII log-log plot.
type Figure struct {
	// ID is the paper artifact identifier ("fig1a", "table1", ...). A
	// multi-panel paper figure yields one Figure per panel ("fig9d").
	ID string
	// Title describes the panel, matching the paper caption.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// LogX and LogY mark logarithmic axes, as in the paper's plots.
	LogX, LogY bool
	// Series are the labeled curves.
	Series []Series
	// Notes records fidelity caveats (e.g. reduced scale, known noise).
	Notes string
}

// Series is a labeled curve of a figure, e.g. one line of a paper figure
// ("m=2, kc=40" in Fig 6a).
type Series struct {
	Label  string
	Points []Point
}

// Point is one (x, y±err) sample.
type Point struct {
	X, Y, Err float64
}

// SpecFunc regenerates one paper artifact at the given scale. The seed
// makes the whole artifact reproducible.
type SpecFunc func(sc Scale, seed uint64) ([]Figure, error)

// Spec describes a registered experiment.
type Spec struct {
	// ID is the registry key ("fig6", "table1", ...).
	ID string
	// Paper names the artifact in the paper.
	Paper string
	// Description summarizes workload and parameters.
	Description string
	// Run regenerates the artifact.
	Run SpecFunc
	// Distributable marks specs whose every result flows through journaled
	// slot records — the prerequisite for coordinator/worker distribution
	// (internal/coord): a worker can run one realization and stream the
	// records back, and the coordinator's journal-driven reduction is
	// complete. Every spec with a realization loop is; table2, which has
	// none, runs locally even in coordinator mode.
	Distributable bool
}

// Registry returns all experiment specs in presentation order
// (figures first, then tables, then extensions).
func Registry() []Spec {
	return []Spec{
		{ID: "fig1a", Paper: "Fig. 1(a)", Description: "PA degree distributions, no cutoff, m=1..3", Run: Fig1a, Distributable: true},
		{ID: "fig1b", Paper: "Fig. 1(b)", Description: "PA degree distributions under hard cutoffs", Run: Fig1b, Distributable: true},
		{ID: "fig1c", Paper: "Fig. 1(c)", Description: "PA degree exponent vs hard cutoff", Run: Fig1c, Distributable: true},
		{ID: "fig2", Paper: "Fig. 2", Description: "CM degree distributions, gamma in {2.2,2.6,3.0}", Run: Fig2, Distributable: true},
		{ID: "fig3", Paper: "Fig. 3", Description: "HAPA degree distributions", Run: Fig3, Distributable: true},
		{ID: "fig4", Paper: "Fig. 4(a-f)", Description: "DAPA degree distributions vs tau_sub", Run: Fig4, Distributable: true},
		{ID: "fig4g", Paper: "Fig. 4(g)", Description: "DAPA degree exponent vs hard cutoff", Run: Fig4g, Distributable: true},
		{ID: "fig6", Paper: "Fig. 6", Description: "Flooding hits on PA and HAPA", Run: Fig6, Distributable: true},
		{ID: "fig7", Paper: "Fig. 7", Description: "Flooding hits on CM", Run: Fig7, Distributable: true},
		{ID: "fig8", Paper: "Fig. 8", Description: "Flooding hits on DAPA", Run: Fig8, Distributable: true},
		{ID: "fig9", Paper: "Fig. 9", Description: "Normalized flooding on PA, CM, HAPA", Run: Fig9, Distributable: true},
		{ID: "fig10", Paper: "Fig. 10", Description: "Normalized flooding on DAPA", Run: Fig10, Distributable: true},
		{ID: "fig11", Paper: "Fig. 11", Description: "Random walk (NF budget) on PA, CM, HAPA", Run: Fig11, Distributable: true},
		{ID: "fig12", Paper: "Fig. 12", Description: "Random walk (NF budget) on DAPA", Run: Fig12, Distributable: true},
		{ID: "table1", Paper: "Table I", Description: "Diameter scaling regimes of scale-free networks", Run: Table1, Distributable: true},
		{ID: "table2", Paper: "Table II", Description: "Global-information usage of the four mechanisms", Run: Table2},
		{ID: "messaging", Paper: "§V-B2", Description: "Messaging complexity: NF vs RW (results omitted from the paper)", Run: Messaging, Distributable: true},
		{ID: "attack", Paper: "§III (ext)", Description: "Robust-yet-fragile: failures vs hub attacks, with and without cutoffs", Run: Attack, Distributable: true},
		{ID: "delivery", Paper: "Eqs. 6-7 (ext)", Description: "Delivery-time scaling: FL ~ logN, RW ~ N^0.79", Run: Delivery, Distributable: true},
		{ID: "kwalk", Paper: "§V-B1 (ext)", Description: "Multiple random walkers vs NF at equal message budget", Run: KWalk, Distributable: true},
		{ID: "fairness", Paper: "§I (ext)", Description: "Load fairness: Gini and top-1% degree share vs hard cutoff", Run: Fairness, Distributable: true},
		{ID: "strategies", Paper: "§II/§V-B (ext)", Description: "All search strategies (FL/NF/RW/k-walk/HDS/PF/hybrid) at equal message budget", Run: Strategies, Distributable: true},
		{ID: "replication", Paper: "§II refs [22,23] (ext)", Description: "Cohen-Shenker replication strategies: ESS vs budget on PA overlays", Run: Replication, Distributable: true},
		{ID: "churn", Paper: "§VI (ext)", Description: "Join/leave dynamics: repair vs no-repair under balanced churn with kc", Run: Churn, Distributable: true},
		{ID: "desflood", Paper: "§V-A (DES ext)", Description: "Message-level DES flooding: coverage, latency-vs-hops, and message cost under per-edge latency and loss", Run: DESFlood, Distributable: true},
		{ID: "deskwalk", Paper: "§V-B1 (DES ext)", Description: "Message-level DES k-walkers: coverage vs steps under per-edge latency and loss", Run: DESKWalk, Distributable: true},
		{ID: "desfail", Paper: "§III/§V (DES ext)", Description: "Message-level DES robustness: flood and k-walk coverage under deterministic node-crash and link-partition schedules", Run: DESFail, Distributable: true},
	}
}

// Lookup returns the spec with the given ID.
func Lookup(id string) (Spec, error) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("sim: unknown experiment %q", id)
}

// The realization engine (runPool, the lane pool every spec's one batch
// and every claim's sweeps run on) and the journaled series helper on top
// of it (realizationBatch) live in pipeline.go.

// sweeper is one sweep lane's source-sweep pool: a fixed set of shard
// scratches (and DES sims) the lane keeps for its pool's whole life and
// reuses across every (series, realization) task it sweeps, whatever build
// or seed the task belongs to — the engine points seed at each task's —
// so the search kernels stay allocation-free no matter how work is
// scheduled, plus the buffers of the block and record frame of the series
// and realization being swept, reused by the next one. A sweeper belongs
// to its lane's goroutine; Sources may be called any number of times per
// realization (one call per sub-experiment). Between pools it waits on
// laneFree.
type sweeper struct {
	seed      uint64
	shards    int
	scratches []*search.Scratch
	sims      []*des.Sim
	// rows and slab back block; frame is the journal frame buffer
	// realizationBatch encodes the block into. The series reduces the block
	// and the journal copies the frame before the sweep returns; a worker's
	// sink lends it back by raising frameBack (SlotRecord.Release) or keeps
	// it, and the next record then starts a fresh buffer.
	rows      [][]float64
	slab      []float64
	frame     []byte
	frameBack bool
}

// laneFree is the one free list of lane state, and it outlives every lane
// pool: a pool's build lanes take their CSR arenas here and its sweep lanes
// their sweepers (shard scratches, DES sims, block and frame buffers), keep
// them for the pool's whole life, and hand them back when it ends — so the
// next pool, the spec's next batch or the next spec, reuses the O(N) kernel
// state and build buffers earlier ones grew instead of growing its own from
// nothing. Snapshots cycle through it one realization at a time: a sweep
// lane retires each snapshot its build lane minted once the realization's
// last series has been swept (retireSnapshot), a build lane retires the
// one a build handed back to its arena, and a build lane hands one to its
// arena before every build (takeSnapshot), whose freeze refills its
// arrays — or, when they are too small, shelves it behind the others
// (shelveSnapshot). Only state whose every use returned
// normally comes back: a sweeper, arena or snapshot that saw a failed
// attempt is dropped. It is a plain free list, which the garbage collector
// never empties, so what a run allocates does not depend on when a
// collection happens; the snapshot list holds at most spareSnapshots.
var laneFree struct {
	sync.Mutex
	sweepers  []*sweeper
	arenas    []*graph.CSRArena
	snapshots []*graph.Frozen
}

// spareSnapshots bounds laneFree's snapshot list: 3·GOMAXPROCS, as many as
// a pool on the default budget has alive at once (building, queued, being
// swept), so every build of a pool finds one while the list never holds
// more than a run could have used.
func spareSnapshots() int { return 3 * runtime.GOMAXPROCS(0) }

// pop takes the last entry of one of laneFree's lists (nil when it is
// empty), clearing its slot: the list must not keep a taken entry alive.
// The caller holds laneFree's lock.
func pop[E any](list *[]*E) *E {
	n := len(*list)
	if n == 0 {
		return nil
	}
	e := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return e
}

// takeArena returns the last CSR arena released, or a new one.
func takeArena() *graph.CSRArena {
	laneFree.Lock()
	a := pop(&laneFree.arenas)
	laneFree.Unlock()
	if a == nil {
		a = graph.NewCSRArena()
	}
	return a
}

// releaseArena hands a build lane's arena back for reuse. Only an arena
// whose every build returned normally may be released.
func releaseArena(a *graph.CSRArena) {
	laneFree.Lock()
	laneFree.arenas = append(laneFree.arenas, a)
	laneFree.Unlock()
}

// takeSnapshot returns the last snapshot retired, or nil.
func takeSnapshot() *graph.Frozen {
	laneFree.Lock()
	defer laneFree.Unlock()
	return pop(&laneFree.snapshots)
}

// retireSnapshot hands back a snapshot nothing will read again, for the
// next build to refill (nil is a no-op); when the list is full the oldest
// is dropped. Only a snapshot a build lane minted whose every sweep
// returned normally on its first attempt may be retired: never a prebuilt
// overlay, a shared substrate or a snapshot carved from another.
func retireSnapshot(f *graph.Frozen) {
	if f == nil {
		return
	}
	laneFree.Lock()
	defer laneFree.Unlock()
	if over := len(laneFree.snapshots) - spareSnapshots() + 1; over > 0 {
		laneFree.snapshots = slices.Delete(laneFree.snapshots, 0, over)
	}
	laneFree.snapshots = append(laneFree.snapshots, f)
}

// shelveSnapshot hands back a snapshot a build was handed but could not
// refill, too small for either of its arrays: it goes behind every other,
// so a build takes it only when none is left and a full list drops it
// first, instead of coming straight back to the next build of the shape
// it did not fit.
func shelveSnapshot(f *graph.Frozen) {
	if f == nil {
		return
	}
	laneFree.Lock()
	defer laneFree.Unlock()
	if len(laneFree.snapshots) < spareSnapshots() {
		laneFree.snapshots = slices.Insert(laneFree.snapshots, 0, f)
	}
}

// newSweeper returns a sweeper of `shards` scratches (the engine resolves
// automatic sizing before construction; <=1 means serial sweeps) drawing
// from seed's streams: the last one released, when there is one, topped up
// with fresh scratches that start empty and grow on first use. A reused
// sweeper keeps any scratches beyond `shards` unused.
func newSweeper(seed uint64, shards int) *sweeper {
	laneFree.Lock()
	sw := pop(&laneFree.sweepers)
	laneFree.Unlock()
	if sw == nil {
		sw = &sweeper{}
	}
	sw.seed, sw.shards = seed, max(shards, 1)
	for len(sw.scratches) < sw.shards {
		sw.scratches = append(sw.scratches, search.NewScratch(0))
		sw.sims = append(sw.sims, nil)
	}
	return sw
}

// release hands the sweeper back for reuse. Only a sweeper whose every
// sweep returned normally may be released: one that saw a panic may hold
// half-written kernel state and is dropped instead.
func (sw *sweeper) release() {
	laneFree.Lock()
	laneFree.sweepers = append(laneFree.sweepers, sw)
	laneFree.Unlock()
}

// Sim returns the shard's pooled DES simulator, created on first use so
// non-DES specs pay nothing. Each shard index is owned by exactly one
// goroutine for the duration of a Sources call, so lazy init is race-free.
func (sw *sweeper) Sim(shard int) *des.Sim {
	if sw.sims[shard] == nil {
		sw.sims[shard] = des.NewSim(0)
	}
	return sw.sims[shard]
}

// block returns n zeroed rows of rowLen values in the sweeper's buffers,
// one slab for all rows (see slabRows). The sweeper's next block reuses
// them, so the block must not outlive the series and realization it is
// swept for.
func (sw *sweeper) block(n, rowLen int) [][]float64 {
	if cap(sw.rows) < n {
		sw.rows = make([][]float64, n)
	}
	if cap(sw.slab) < n*rowLen {
		sw.slab = make([]float64, n*rowLen)
	}
	slab := sw.slab[:n*rowLen]
	clear(slab)
	return slabRows(sw.rows[:n], slab, rowLen)
}

// Sources enumerates the (source, stream) pairs of one sweep and runs
// query for s = 0..sources-1 across the sweeper's shard pool, the calling
// goroutine acting as shard 0. Each query receives the RNG stream
// NewStream(seed, stream, s) — derived solely from those three values, so
// neither shard count nor scheduling order can perturb it — and the shard's
// scratch. `stream` names the sweep (realization index for single-sweep
// specs; any collision-free tag when a spec sweeps several times per
// realization).
//
// query must deposit results into per-s slots, or into per-shard integer
// accumulators whose merge is order-independent; anything else breaks the
// bit-for-bit contract. The lowest-index error wins, as in the outer pool.
func (sw *sweeper) Sources(stream uint64, sources int, query func(shard, s int, rng *xrand.RNG, scratch *search.Scratch) error) error {
	return sw.each(sources, func(shard, s int) error {
		return query(shard, s, xrand.NewStream(sw.seed, stream, uint64(s)), sw.scratches[shard])
	})
}

// FloodSources is Sources for plain flooding, where a figure reads only
// each source's per-TTL hits: source s still draws its node from the
// (seed, stream, s) stream, but contiguous runs of sources are flooded
// together by search.FloodBatch, one run per work item of the shard pool,
// and emit(s, result) is called for every s with the Hits a Sources query
// calling Scratch.Flood would have seen; Messages is nil. The run width
// follows from the shard count — every shard gets a run, no run exceeds
// the kernel's word — and cannot change a result, only how many adjacency
// scans are shared. The Result passed to emit aliases the shard's scratch.
func (sw *sweeper) FloodSources(stream uint64, sources int, f *graph.Frozen, maxTTL int, emit func(s int, res search.Result)) error {
	if sources <= 0 {
		return nil
	}
	shards := min(sw.shards, sources)
	width := min(search.MaxBatch, (sources+shards-1)/shards)
	return sw.each((sources+width-1)/width, func(shard, b int) error {
		scratch := sw.scratches[shard]
		lo := b * width
		var buf [search.MaxBatch]int
		srcs := buf[:min(width, sources-lo)]
		for i := range srcs {
			rng := xrand.StreamValue(sw.seed, stream, uint64(lo+i))
			srcs[i] = rng.Intn(f.N())
		}
		results, err := scratch.FloodBatch(f, srcs, maxTTL)
		if err != nil {
			return err
		}
		for i, res := range results {
			emit(lo+i, res)
		}
		return nil
	})
}

// each runs fn for i = 0..n-1 across the shard pool, the calling goroutine
// acting as shard 0, and returns the lowest-index error. A panic in fn on
// any shard is caught there, the other shards finish, and the lowest-index
// failure is re-raised on the calling goroutine with the original stack
// attached — so the engine's supervisor (protectCall) sees it wherever it
// happened, and no shard is still writing when the caller moves on.
func (sw *sweeper) each(n int, fn func(shard, i int) error) error {
	shards := min(sw.shards, n)
	if shards <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(shard int) {
		defer wg.Done()
		i := -1
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &panicError{val: v, stack: debug.Stack()}
			}
		}()
		for {
			i = int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(shard, i)
		}
	}
	wg.Add(shards)
	for sh := 1; sh < shards; sh++ {
		go work(sh)
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if pe, ok := err.(*panicError); ok {
			panic(shardPanic{pe})
		}
		if err != nil {
			return err
		}
	}
	return nil
}
