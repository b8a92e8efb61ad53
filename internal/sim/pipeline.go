package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// This file is the realization engine — one lane pool, the one way a spec
// runs its realizations — and the journaled series helper every spec calls
// it through. A spec declares all its series and hands them to the helper
// in one batch (realizationBatch, or one of its typed adapters); the pool
// runs every (series, realization) task in declaration order with no
// barrier between series: a lane that finishes series i's last realization
// starts series i+1's first, so R realizations per series no longer leave
// lanes idle at the end of each series. One build can also
// serve several series: each realization is built once and swept for every
// series that shares the build (the DES specs' knob series do).
// Scale.Workers is the run's one parallelism budget P, which schedule
// splits over the R realizations into `lanes` = min(P, R) and `width` =
// ceil(P / lanes). A batch's tasks flow through:
//
//	build stage   — `lanes` goroutines take tasks lowest first, generate
//	                their topologies, each generator using up to `width`
//	                goroutines internally, and freeze them into CSR
//	                adjacency (the sweeps only forward to neighbors, so no
//	                membership ranges are built), so task t+1 (and beyond)
//	                is being built while task t is being swept;
//	bounded queue — finished snapshots wait on a channel of capacity
//	                `lanes`, which is the pool's backpressure: the build
//	                stage stalls rather than running unboundedly ahead of
//	                the sweep;
//	sweep stage   — `lanes` goroutines pull snapshots in completion order
//	                and shard each one's sources across `width` goroutines
//	                (the sweeper pool).
//
// Each lane owns its state for the pool's whole life — a build lane one
// graph.CSRArena, a sweep lane one sweeper — and takes it from laneFree,
// the free list that outlives every pool, so the buffers one series (or
// spec) grew serve the next. A job with nothing to sweep (degree
// distributions, churn traces, robustness curves) passes a nil sweep: its
// build is the whole task, and a batch of such jobs runs no queue and no
// sweepers.
//
// Determinism contract (pinned by the scheduler tests): realization r's
// build draws only from xrand phase streams derived from (seed, r, phase)
// — never from which lane ran it, which task ran before it, or how many
// goroutines a generator used internally — and its legacy sibling stream
// rngs[k][r] depends only on (seed, r); source s of sweep `stream` draws
// from xrand.NewStream(seed, stream, s); and all outputs land in per-index
// slots (or order-independent integer accumulators), each series reduced
// in realization order and each figure assembled in declaration order.
// Under that contract the figure output is bit-for-bit identical for any
// Workers, including fully serial runs.
//
// Supervision: Scale.Run layers panic recovery, bounded deterministic
// retries, a permanent-failure budget, and realization-boundary
// interruption over the dispatch loop; both stages go through the same
// first-attempt/retry sequence (attempt), and failures reach the
// supervisor in task order (settle). A nil Run is the unsupervised engine:
// panics propagate, the lowest task's error is returned. Retries cannot
// perturb results — a re-attempt re-derives realization r's legacy stream
// from xrand.New(seed).SplitN(n)[r] (the failed attempt may have consumed
// stream state) and runs on a fresh arena and a fresh sweeper (the panic
// may have corrupted the lane's buffers mid-write), so a surviving attempt
// deposits exactly the bits of a never-failed run; the lane then drops the
// arena or sweeper its failed first attempt used and takes a clean one (a
// sweep lane keeps the sweeper of the retry that succeeded).
//
// Memory: up to 3·lanes frozen snapshots can be alive at once across the
// whole pool (building + queued + being swept), so `-workers k` caps them
// at 3·min(k, R), however many series the batch holds and however many
// share a build. They are the same few arrays realization after
// realization: a job whose values are snapshots its lane minted names a
// retire hook, the sweep lane retires each one once every series pending
// at its realization has been swept cleanly on the first attempt, a build
// that reads its snapshot down to a smaller value (a degree histogram, a
// carved giant component) hands it back to the arena itself, and the
// build lane hands a retired one to its arena before every build, whose
// freeze refills its arrays (laneFree). A snapshot of a
// failed, retried or interrupted attempt is dropped, as a failed arena is,
// and one the lane did not mint — a prebuilt overlay, a shared substrate,
// a snapshot carved from another — is never retired. The series sharing a
// build are swept one after another into one block per sweep lane, in that
// sweeper's buffers, and each keeps only its realizations' reductions
// (realizationBatch).

// builder carries one realization's build-phase context: the phase-stream
// derivation root, the legacy per-realization stream, and the
// intra-generator parallelism budget. A builder is handed to exactly one
// build invocation and is only valid for its duration.
type builder struct {
	// r is the realization index.
	r int
	// rng is the legacy per-realization stream (split r-th from the root,
	// exactly as every engine since PR 1 derived it), for spec-side draws
	// that are consumed sequentially within the realization (churn event
	// schedules, robustness removal orders, path sampling).
	rng *xrand.RNG
	// phases derives the (seed, realization, phase) build sub-streams.
	phases xrand.Phases
	// width bounds intra-generator parallelism for this build.
	width int
	// arena lends the build its working set: the growth graph and ID maps
	// PA, HAPA and DAPA grow, and every generator's scratch and
	// direct-to-CSR buffers. It belongs to the build lane (one arena per
	// lane, reused across every task the lane builds, of any series, and
	// by later pools through laneFree), so back-to-back realizations reuse
	// that memory instead of re-growing it. What it lends stays valid only
	// until the lane's next build, so a build freezes or uses up its graph
	// before it returns, and what it returns (a snapshot, a histogram, a
	// curve) never aliases what the arena lends: a snapshot's arrays are at
	// most those of the retired snapshot the lane handed the arena before
	// the build, which its freeze refilled. Output is identical with or
	// without it.
	arena *graph.CSRArena
}

// gen returns the generator build context: phase sub-streams plus the
// intra-build worker budget and the lane's CSR arena.
func (b *builder) gen() gen.Build {
	bld := gen.NewBuild(b.phases, b.width)
	bld.Arena = b.arena
	return bld
}

// schedule splits the parallelism budget p (<= 0 means GOMAXPROCS) over n
// realizations: `lanes` build workers and as many sweep workers, and a
// per-realization `width` — goroutines inside its generator and source
// shards in its sweep — that soaks up the remainder when realizations are
// scarcer than p, the configurations where the build phase dominates.
// lanes × width stays below p + lanes, so the default never runs P²
// goroutines on a P-core box.
func schedule(p, n int) (lanes, width int) {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	lanes = max(1, min(p, n))
	return lanes, (p + lanes - 1) / lanes
}

// newBuilder assembles one realization's build context. arena is the
// owning build lane's buffer pool (may be nil in tests).
func newBuilder(seed uint64, r int, rng *xrand.RNG, width int, arena *graph.CSRArena) *builder {
	return &builder{
		r:      r,
		rng:    rng,
		phases: xrand.Phases{Seed: seed, Realization: uint64(r)},
		width:  width,
		arena:  arena,
	}
}

// retryRNG re-derives realization r's legacy stream exactly as the
// dispatch loop derived rngs[r], so a retry starts from pristine stream
// state no matter how much of it a failed attempt consumed.
func retryRNG(seed uint64, n, r int) *xrand.RNG {
	return xrand.New(seed).SplitN(n)[r]
}

// engineJob is one build of a lane pool's batch: its realizations are
// built from seed's streams and, when sweep is non-nil, swept; with a nil
// sweep, build is the whole realization. name, when set, prefixes the
// error a failed realization of this job returns.
type engineJob[T any] struct {
	name  string
	seed  uint64
	build func(r int, b *builder) (T, error)
	sweep func(r int, v T, sw *sweeper) error
	// pending reports how many series realization r still has to compute;
	// the caller replays the others from a previous run's journal into its
	// reduction and counts them as progress. The engine never dispatches a
	// realization with none pending, and each stage of one it dispatches
	// counts its pending series as progress units. nil: one series,
	// nothing replayed.
	pending func(r int) int
	// partial marks a journaled series whose reduction drops permanently
	// failed realizations with explicit accounting, so failures within the
	// -max-failed budget are absorbed instead of aborting. A strict caller
	// (makeSubstrates: every series needs every substrate) leaves it false
	// and keeps failures fatal.
	partial bool
	// retire, when set, takes back realization r's value once every series
	// pending at r has been swept cleanly on the first attempt: the value
	// is dead, and a snapshot the build lane minted goes back to laneFree
	// (retireSnapshot) for a later build to refill. nil for values the
	// engine must not recycle: overlays built outside it (prebuilt), shared
	// substrates, snapshots carved from another (InducedFrozen).
	retire func(T)
}

// runPool is the realization engine: one lane pool that runs every
// (job, realization) task of a batch — task t is realization t mod R of
// job t div R — dispatching the lowest task first, with no barrier between
// jobs: a lane that finishes job k's last build starts job k+1's first.
// sc supplies the realization count R, the parallelism budget and the
// supervisor. Build errors skip the sweep. The error returned is the one a
// sequential run would have hit first — the lowest job, then the lowest
// realization — whichever stage it came from: failures are handed to the
// supervisor in task order (settle), so that holds under -max-failed
// budgets too. Under a RunControl, panics become errors, failed
// realizations are retried end-to-end (a sweep failure rebuilds the
// topology: the snapshot may carry consumed phase streams), cancellation
// stops dispatch at realization boundaries, and journaled-complete
// realizations are skipped.
func runPool[T any](sc Scale, jobs ...engineJob[T]) error {
	n, rc := sc.Realizations, sc.Run
	tasks := len(jobs) * max(n, 0)
	if tasks == 0 {
		return nil
	}
	lanes, width := schedule(sc.Workers, n)
	rngs := make([][]*xrand.RNG, len(jobs))
	sweeps := false
	for k, j := range jobs {
		rngs[k] = xrand.New(j.seed).SplitN(n)
		sweeps = sweeps || j.sweep != nil
	}

	// attempt is the supervision sequence both stages share: one attempt,
	// then retries while the budget and the run allow. A success counts
	// `units` of progress, one per series it computed. It reports how many
	// attempts ran and the last one's error.
	attempt := func(units int, first, again func() error) (attempts int, err error) {
		err = protectErr(rc, first)
		attempts = 1
		for err != nil && attempts < rc.maxAttempts() && rc.interrupted() == nil {
			attempts++
			err = protectErr(rc, again)
		}
		if err == nil {
			if attempts > 1 {
				rc.noteRecovered()
			}
			rc.noteProgress(units)
		}
		return attempts, err
	}
	// settle marks task t finished and hands failures to the supervisor in
	// task order: a task's failure is absorbed (errs[t] set unless it fits
	// the partial budget) only once every lower task has finished, so the
	// failure that trips the -max-failed budget is the one a sequential run
	// would have tripped it with, however the lanes interleaved.
	type outcome struct {
		done     bool
		attempts int
		err      error
	}
	outcomes, errs := make([]outcome, tasks), make([]error, tasks)
	var mu sync.Mutex
	frontier := 0
	settle := func(t, attempts int, err error) {
		mu.Lock()
		defer mu.Unlock()
		outcomes[t] = outcome{done: true, attempts: attempts, err: err}
		for ; frontier < tasks && outcomes[frontier].done; frontier++ {
			if o := outcomes[frontier]; o.err != nil {
				j := &jobs[frontier/n]
				errs[frontier] = rc.absorbFailure(j.seed, frontier%n, o.attempts, o.err, j.partial)
			}
		}
	}
	// rebuild is a retry's build: fresh stream and fresh arena, because the
	// failed attempt may have consumed rngs[k][r] or corrupted the lane's
	// arena mid-panic.
	rebuild := func(t int) (T, error) {
		j, r := &jobs[t/n], t%n
		return j.build(r, newBuilder(j.seed, r, retryRNG(j.seed, n, r), width, graph.NewCSRArena()))
	}

	type snapshot struct {
		t, units int
		v        T
		// retried: v is a retry's build, which the engine never retires.
		retried bool
	}
	var ready chan snapshot
	var next atomic.Int64
	buildWorker := func() {
		// The lane's arena, for the pool's whole life: every build it runs
		// reuses the chunk and scratch buffers earlier ones grew, and no
		// arena ever serves two builds at once.
		arena := takeArena()
		for rc.interrupted() == nil {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				break
			}
			k, r := t/n, t%n
			j := &jobs[k]
			units := 1
			if j.pending != nil {
				units = j.pending(r)
			}
			// Distributed-worker restriction: realizations leased to other
			// workers are simply never dispatched; determinism holds
			// because rngs[k][r] and the phase streams depend only on
			// (seed, r), not on which indices this process ran.
			if units == 0 || !rc.owns(r) {
				settle(t, 0, nil)
				continue
			}
			spare := takeSnapshot()
			arena.Recycle(spare)
			var v T
			attempts, err := attempt(units, func() (err error) {
				v, err = j.build(r, newBuilder(j.seed, r, rngs[k][r], width, arena))
				return err
			}, func() (err error) {
				v, err = rebuild(t)
				return err
			})
			if attempts > 1 || err != nil {
				// The failed first build may have left the arena's buffers
				// half-written; replace it before any other build touches
				// it. The old one is dropped, never released to the free
				// list, with the snapshot it was handed.
				arena = takeArena()
			} else if back := arena.Reclaim(); back == spare {
				shelveSnapshot(back) // too small to refill
			} else {
				retireSnapshot(back) // one the build retired itself
			}
			if err == nil && j.sweep != nil {
				ready <- snapshot{t: t, units: units, v: v, retried: attempts > 1}
				continue
			}
			settle(t, attempts, err)
		}
		releaseArena(arena)
	}
	sweepWorker := func() {
		// The lane's sweeper, for the pool's whole life; each task points
		// it at its job's seed.
		sw := newSweeper(0, width)
		for snap := range ready {
			if rc.interrupted() != nil {
				// Keep draining so builders blocked on the bounded queue
				// can observe the interrupt instead of deadlocking against
				// it.
				continue
			}
			j, r := &jobs[snap.t/n], snap.t%n
			sw.seed = j.seed
			var recovered *sweeper // the sweeper of the retry that succeeded
			attempts, err := attempt(snap.units, func() error {
				return j.sweep(r, snap.v, sw)
			}, func() error {
				// Retry the realization end-to-end: the snapshot may carry
				// phase streams the failed sweep already consumed, so only
				// a rebuild restores pristine state. Fresh sweeper for the
				// same reason.
				v, err := rebuild(snap.t)
				if err != nil {
					return err
				}
				fresh := newSweeper(j.seed, width)
				if err := j.sweep(r, v, fresh); err != nil {
					return err
				}
				recovered = fresh
				return nil
			})
			if attempts > 1 || err != nil {
				// The failed first sweep may have corrupted this lane's
				// sweeper scratches mid-write; replace it before any other
				// realization touches it: with the sweeper of the retry
				// that succeeded, if one did, which the lane releases when
				// the pool ends. The old one, and any a failed retry
				// used, is dropped, never released to the free list.
				sw = recovered
				if sw == nil {
					sw = newSweeper(0, width)
				}
			} else if j.retire != nil && !snap.retried {
				// Every pending series swept cleanly on the first attempt
				// of a first build: the value is dead.
				j.retire(snap.v)
			}
			settle(snap.t, attempts, err)
		}
		sw.release()
	}

	var bwg, swg sync.WaitGroup
	spawn := func(wg *sync.WaitGroup, count int, worker func()) {
		wg.Add(count)
		for w := 0; w < count; w++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
	}
	if sweeps {
		ready = make(chan snapshot, lanes)
		spawn(&swg, lanes, sweepWorker)
	}
	spawn(&bwg, lanes, buildWorker)
	bwg.Wait()
	if sweeps {
		close(ready)
	}
	swg.Wait()
	// Tasks an interruption left undispatched or undrained settle as not
	// run, which lets the failures behind them reach the supervisor.
	for t := range outcomes {
		if !outcomes[t].done {
			settle(t, 0, nil)
		}
	}
	if err := rc.interrupted(); err != nil {
		return err
	}
	for t, err := range errs {
		if err != nil {
			if name := jobs[t/n].name; name != "" {
				return fmt.Errorf("%s: %w", name, err)
			}
			return err
		}
	}
	return nil
}

// blockCodec names the journal record family of one series, converts a
// realization's block — its whole contribution to the series — to the
// record's sealed frame, and reduces the block to the R the series keeps
// the moment it lands: reduce for a block the engine just computed, decode
// for a journaled payload, straight from the replay buffer (ok=false for a
// payload of another shape: a record from a schema drift the header check
// missed). encode builds the frame in dst's storage (nil: a fresh buffer)
// and returns nil for a block it cannot represent (journaling is skipped).
type blockCodec[B, R any] struct {
	kind   uint8
	encode func(dst []byte, k journalKey, blk B) []byte
	reduce func(B) R
	decode func([]byte) (R, bool)
}

// same is the reduction of a series that keeps whole blocks.
func same[B any](blk B) B { return blk }

// rowBlocks is the codec of blocks of nRows float64 rows of rowLen values
// each, kept whole; rowLen < 0 takes the length each record carries (curves
// whose length the generator decides: robustness steps, churn probes).
func rowBlocks(kind uint8, nRows, rowLen int) blockCodec[[][]float64, [][]float64] {
	return blockCodec[[][]float64, [][]float64]{
		kind:   kind,
		encode: func(dst []byte, k journalKey, rows [][]float64) []byte { return appendRowBlock(dst, k, rows, rowLen) },
		reduce: same[[][]float64],
		decode: func(p []byte) ([][]float64, bool) { return decodeRowBlock(p, nRows, rowLen) },
	}
}

// rowMeans is the codec of a sweep's blocks of nCurves × sources rows of
// rowLen values, curve-major, which the series reduces to their nCurves
// mean rows as each lands (meanCurves; decodeRowMeans for a journaled one).
// The block itself is never kept, so it may live in its sweeper's buffers.
func rowMeans(kind uint8, nCurves, sources, rowLen int) blockCodec[[][]float64, [][]float64] {
	c := rowBlocks(kind, nCurves*sources, rowLen)
	c.reduce = func(rows [][]float64) [][]float64 { return meanCurves(rows, nCurves) }
	c.decode = func(p []byte) ([][]float64, bool) { return decodeRowMeans(p, nCurves, sources, rowLen) }
	return c
}

// oneRow is rowBlocks for a realization that contributes a single row.
func oneRow(rowLen int) blockCodec[[]float64, []float64] {
	c := rowBlocks(recSweepSlots, 1, rowLen)
	return blockCodec[[]float64, []float64]{
		kind:   c.kind,
		encode: func(dst []byte, k journalKey, row []float64) []byte { return c.encode(dst, k, [][]float64{row}) },
		reduce: same[[]float64],
		decode: func(p []byte) ([]float64, bool) {
			rows, ok := c.decode(p)
			if !ok {
				return nil, false
			}
			return rows[0], true
		},
	}
}

// blockSeries is one journaled series of a blockBuild: tag and codec name
// its records and reduce its blocks, and sweep(r, v, sw) turns realization
// r's built snapshot into its block. A build-only series has a nil sweep
// and its build returns the block itself.
type blockSeries[T, B, R any] struct {
	tag   string
	codec blockCodec[B, R]
	sweep func(r int, v T, sw *sweeper) (B, error)
}

// journaled assembles a blockSeries, inferring its types from the codec and
// the sweep (a build-only series, whose sweep is nil, names T).
func journaled[T, B, R any](tag string, codec blockCodec[B, R], sweep func(r int, v T, sw *sweeper) (B, error)) blockSeries[T, B, R] {
	return blockSeries[T, B, R]{tag: tag, codec: codec, sweep: sweep}
}

// blockBuild is one build of a realizationBatch: the realizations build
// makes from seed's streams, shared by its series. name (may be empty)
// prefixes the error a failed realization of it returns; retire (may be
// nil) is its engine job's hook, set by minted.
type blockBuild[T, B, R any] struct {
	name   string
	seed   uint64
	build  func(r int, b *builder) (T, error)
	series []blockSeries[T, B, R]
	retire func(T)
}

// shared assembles a blockBuild, inferring its types from the build and
// its series.
func shared[T, B, R any](name string, seed uint64, build func(r int, b *builder) (T, error), series ...blockSeries[T, B, R]) blockBuild[T, B, R] {
	return blockBuild[T, B, R]{name: name, seed: seed, build: build, series: series}
}

// realizationBatch is the one journaled path from series to their
// per-realization reductions: a spec hands it all its builds at once and
// every (build, realization) task runs on one lane pool (runPool), in
// declaration order with no barrier between builds. The series of a build
// share it: realization r is built and frozen once, then every series that
// has not landed r yet is swept in list order, each block journaled and
// reduced before the next series is swept into the sweeper's same buffers,
// so no block outlives its sweep unless the codec's reduction keeps it.
// Before any task is dispatched it claims every series' record family, in
// declaration order, and replays what a previous run journaled: a
// realization every series of a build replays is never built, and a retry
// or a resume rebuilds r to sweep only the series still missing it.
// Build-only series (nil sweeps) land the build's value as their block. A
// tag names its series in the journal: with the build's seed it keys the
// records, so series that share a seed by design (the DES loss/failure
// knobs, which also share the build, and panels reusing a label format)
// must differ in tag — a collision fails loudly in journalClaim, before any
// work starts.
//
// A returned reduction, reduced[k][i][r] for series i of build k, is the
// zero R when its realization is absent: it permanently failed within the
// -max-failed budget (only a successful sweep ever lands a block, so no
// partial bits can average in), or this process is a distributed worker
// that does not lease it. Reductions drop absent realizations and
// aggregate the survivors in realization order, so a complete run reduces
// exactly as an unjournaled one and a resumed or distributed run
// reproduces its bytes.
func realizationBatch[T, B, R any](sc Scale, builds ...blockBuild[T, B, R]) ([][][]R, error) {
	subs := make([][]uint64, len(builds))
	for k, bd := range builds {
		subs[k] = make([]uint64, len(bd.series))
		for i, s := range bd.series {
			subs[k][i] = journalTag(s.tag)
			if err := sc.Run.journalClaim(s.codec.kind, bd.seed, subs[k][i], s.tag); err != nil {
				return nil, err
			}
		}
	}
	reduced, jobs := make([][][]R, len(builds)), make([]engineJob[T], len(builds))
	for k, bd := range builds {
		reduced[k], jobs[k] = bd.job(sc.Run, sc.Realizations, subs[k])
	}
	if err := runPool(sc, jobs...); err != nil {
		return nil, err
	}
	return reduced, nil
}

// job replays the build's journaled blocks into its reductions and returns
// them with the engine job that computes the rest; subs are its series'
// journal sub-keys.
func (bd blockBuild[T, B, R]) job(rc *RunControl, n int, subs []uint64) ([][]R, engineJob[T]) {
	series := bd.series
	key := func(i, r int) journalKey {
		return journalKey{kind: series[i].codec.kind, stream: bd.seed, sub: subs[i], r: r}
	}
	// landed[i*n+r] marks series i's reduction of realization r as done:
	// replayed, or computed by an attempt whose later series failed. Only
	// the lane holding realization r touches its entries.
	reduced, landed := make([][]R, len(series)), make([]bool, len(series)*n)
	for i, s := range series {
		reduced[i] = make([]R, n)
		for r := range reduced[i] {
			rc.journalPayload(key(i, r), func(p []byte) { reduced[i][r], landed[i*n+r] = s.codec.decode(p) })
			if landed[i*n+r] {
				rc.noteProgress(1)
			}
		}
	}
	// land journals and reduces one computed block. A sweeper's frame
	// buffer serves the next series and realization too once its record is
	// back: at once from a journal, which copies the frame into its file;
	// from a worker's sink only if the sink released the record — a sink
	// that keeps it keeps the buffer, and the sweeper starts a fresh one. A
	// build-only series has no sweeper: its frames are fresh.
	land := func(i, r int, blk B, sw *sweeper) {
		codec := series[i].codec
		switch {
		case !rc.journaling():
		case sw != nil:
			sw.frame = codec.encode(sw.frame, key(i, r), blk)
			if !rc.journalAppend(sw.frame, &sw.frameBack) {
				sw.frame = nil
			}
		default:
			rc.journalAppend(codec.encode(nil, key(i, r), blk), nil)
		}
		reduced[i][r] = codec.reduce(blk)
		landed[i*n+r] = true
	}
	j := engineJob[T]{name: bd.name, seed: bd.seed, build: bd.build, partial: true, retire: bd.retire}
	j.pending = func(r int) (k int) {
		for i := range series {
			if !landed[i*n+r] {
				k++
			}
		}
		return k
	}
	if series[0].sweep == nil {
		j.build = func(r int, b *builder) (T, error) {
			v, err := bd.build(r, b)
			if err != nil {
				return v, err
			}
			for i := range series {
				if !landed[i*n+r] {
					land(i, r, any(v).(B), nil)
				}
			}
			return v, nil
		}
		return reduced, j
	}
	j.sweep = func(r int, v T, sw *sweeper) error {
		for i, s := range series {
			if landed[i*n+r] {
				continue
			}
			blk, err := s.sweep(r, v, sw)
			if err != nil {
				return err
			}
			land(i, r, blk, sw)
		}
		return nil
	}
	return reduced, j
}
