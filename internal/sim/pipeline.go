package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// This file is the three-stage pipelined experiment engine that replaced
// the PR 3 two-level scheduler's generate→freeze→sweep-in-one-callback
// shape. A figure's realizations now flow through:
//
//	build stage   — up to GenWorkers goroutines generate topologies and
//	                freeze them (CSR fill and the sorted HasEdge ranges
//	                both built here, in parallel), so realization r+1 (and
//	                beyond, up to the GenWorkers bound) is being built
//	                while realization r is being swept;
//	bounded queue — finished snapshots wait on a channel of capacity
//	                GenWorkers, which is the pipeline's backpressure: the
//	                build stage stalls rather than running unboundedly
//	                ahead of the sweep;
//	sweep stage   — `workers` goroutines pull snapshots in completion
//	                order and shard each one's sources across
//	                `SourceShards` goroutines (the PR 3 sweeper pool,
//	                unchanged).
//
// Determinism contract (extended from PR 3, pinned by the scheduler
// tests): realization r's build draws only from xrand phase streams
// derived from (seed, r, phase) — never from which build worker ran it or
// how many goroutines a generator used internally — and its legacy
// sibling stream rngs[r] depends only on (seed, r); source s of sweep
// `stream` draws from xrand.NewStream(seed, stream, s); and all outputs
// land in per-index slots (or order-independent integer accumulators)
// reduced in index order. Under that contract the figure output is
// bit-for-bit identical for every (Workers, SourceShards, GenWorkers)
// combination, including fully serial runs.
//
// Supervision (PR 8): both engines take an engineOpts whose *RunControl
// layers panic recovery, bounded deterministic retries, a
// permanent-failure budget, and realization-boundary interruption over
// the same dispatch loops. The zero engineOpts{} is the unsupervised
// engine exactly as before: panics propagate, the first error aborts.
// Retries cannot perturb results — a re-attempt re-derives realization
// r's legacy stream from xrand.New(seed).SplitN(n)[r] (the failed attempt
// may have consumed stream state) and runs on a fresh arena and a fresh
// sweeper (the panic may have corrupted the shared scratch buffers
// mid-write), so a surviving attempt deposits exactly the bits of a
// never-failed run.
//
// Memory: up to 2·GenWorkers + Workers frozen snapshots can be alive at
// once (building + queued + being swept), versus Workers for the PR 3
// scheduler. Builds that must stay lean can set GenWorkers=1, which still
// overlaps one build with the sweeps.

// engineOpts threads supervision into the realization engines.
type engineOpts struct {
	// rc supervises the run; nil = unsupervised (pre-PR-8 semantics).
	rc *RunControl
	// skip reports realizations already journaled by a previous run; the
	// engine counts them as progress and never dispatches them. The caller
	// that supplies skip is responsible for replaying the journaled slots
	// into its reduction. May be nil.
	skip func(r int) bool
	// partial marks a journaled sweep whose reduction drops permanently
	// failed realizations with explicit accounting, so failures within the
	// -max-failed budget are absorbed instead of aborting. Strict callers
	// (everything that averages without a drop path) leave it false and
	// keep failures fatal — silently averaging a zeroed realization would
	// corrupt figures.
	partial bool
}

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
	// genWorkers bounds intra-generator parallelism for this build.
	genWorkers int
	// arena recycles direct-to-CSR build buffers. It belongs to the build
	// worker goroutine (one arena per worker, reused across the
	// realizations that worker builds), so back-to-back xl realizations
	// reuse their chunk and scratch memory instead of re-growing it.
	// Output is identical with or without it.
	arena *graph.CSRArena
}

// gen returns the generator build context: phase sub-streams plus the
// intra-build worker budget and the worker's CSR arena.
func (b *builder) gen() gen.Build {
	bld := gen.NewBuild(b.phases, b.genWorkers)
	bld.Arena = b.arena
	return bld
}

// resolveWorkers applies the "0 means GOMAXPROCS" default.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// resolveShards sizes the per-worker source-shard pool: workers × shards
// ≈ GOMAXPROCS, so the default never runs P² goroutines on a P-core box.
func resolveShards(shards, workers int) int {
	if shards > 0 {
		return shards
	}
	return (runtime.GOMAXPROCS(0) + workers - 1) / workers
}

// resolveBuilders turns the GenWorkers knob into (pool, intra): `pool`
// build goroutines (never more than the work available) and an `intra`
// per-build parallelism budget that soaks up the remainder when
// realizations are scarcer than GenWorkers — the low-realization
// configurations where the build phase dominates. GenWorkers<=0 defaults
// to the resolved sweep worker count.
func resolveBuilders(genWorkers, workers, n int) (pool, intra int) {
	if genWorkers <= 0 {
		genWorkers = workers
	}
	pool = genWorkers
	if pool > n {
		pool = n
	}
	if pool < 1 {
		pool = 1
	}
	return pool, (genWorkers + pool - 1) / pool
}

// newBuilder assembles one realization's build context. arena is the
// owning build worker's buffer pool (may be nil in tests).
func newBuilder(seed uint64, r int, rng *xrand.RNG, intra int, arena *graph.CSRArena) *builder {
	return &builder{
		r:          r,
		rng:        rng,
		phases:     xrand.Phases{Seed: seed, Realization: uint64(r)},
		genWorkers: intra,
		arena:      arena,
	}
}

// retryRNG re-derives realization r's legacy stream exactly as the
// dispatch loop derived rngs[r], so a retry starts from pristine stream
// state no matter how much of it a failed attempt consumed.
func retryRNG(seed uint64, n, r int) *xrand.RNG {
	return xrand.New(seed).SplitN(n)[r]
}

// forEachRealizationPipeline is the pipelined engine for specs with a
// build/sweep split: build(r) generates and freezes realization r's
// topology (returning the snapshot value the sweep needs), sweep(r)
// queries it through the per-worker sweeper. Build errors skip the sweep;
// the lowest-index error wins, whichever stage it came from, exactly as a
// sequential run would have reported first. Under a RunControl, panics
// become errors, failed realizations are retried end-to-end (a sweep
// failure rebuilds the topology: the snapshot may carry consumed phase
// streams), cancellation stops dispatch at realization boundaries, and
// journaled-complete realizations are skipped.
func forEachRealizationPipeline[T any](o engineOpts, workers, shards, genWorkers, n int, seed uint64,
	build func(r int, b *builder) (T, error),
	sweep func(r int, v T, sw *sweeper) error) error {
	if n <= 0 {
		return nil
	}
	workers = resolveWorkers(workers)
	// Default GenWorkers from the pre-cap worker count: on a P-core box
	// running fewer than P realizations — the build-dominated case the
	// pipeline exists for — the build budget must stay P so the remainder
	// flows into intra-generator parallelism, exactly as the build-only
	// pool does. Capping first would silently pin intra to 1 by default.
	pool, intra := resolveBuilders(genWorkers, workers, n)
	if workers > n {
		workers = n
	}
	shards = resolveShards(shards, workers)

	root := xrand.New(seed)
	rngs := root.SplitN(n)
	errs := make([]error, n)

	type snapshot struct {
		r int
		v T
	}
	ready := make(chan snapshot, pool)
	var bnext atomic.Int64
	var bwg sync.WaitGroup
	bwg.Add(pool)
	for w := 0; w < pool; w++ {
		go func() {
			defer bwg.Done()
			// One arena per build worker: realization r+pool reuses the
			// chunk and scratch buffers realization r grew, and no arena
			// ever serves two builds at once.
			arena := graph.NewCSRArena()
			for {
				if o.rc.interrupted() != nil {
					return
				}
				r := int(bnext.Add(1)) - 1
				if r >= n {
					return
				}
				if o.skip != nil && o.skip(r) {
					o.rc.noteProgress()
					continue
				}
				// Distributed-worker restriction: realizations leased to
				// other workers are simply never dispatched; determinism
				// holds because rngs[r] and the phase streams depend only
				// on (seed, r), not on which indices this process ran.
				if !o.rc.owns(r) {
					continue
				}
				v, err := protectCall(o.rc, func() (T, error) {
					return build(r, newBuilder(seed, r, rngs[r], intra, arena))
				})
				attempts := 1
				for err != nil && attempts < o.rc.maxAttempts() && o.rc.interrupted() == nil {
					attempts++
					v, err = protectCall(o.rc, func() (T, error) {
						// Fresh stream and fresh arena: the failed attempt
						// may have consumed rngs[r] or corrupted the shared
						// buffers mid-panic.
						return build(r, newBuilder(seed, r, retryRNG(seed, n, r), intra, graph.NewCSRArena()))
					})
				}
				if err != nil {
					errs[r] = o.rc.absorbFailure(seed, r, attempts, err, o.partial)
					continue
				}
				if attempts > 1 {
					o.rc.noteRecovered()
				}
				o.rc.noteProgress()
				ready <- snapshot{r: r, v: v}
			}
		}()
	}
	go func() {
		bwg.Wait()
		close(ready)
	}()

	var swg sync.WaitGroup
	swg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer swg.Done()
			sw := newSweeper(seed, shards)
			for snap := range ready {
				if o.rc.interrupted() != nil {
					// Keep draining so builders blocked on the bounded
					// queue can observe the interrupt instead of
					// deadlocking against it.
					continue
				}
				snap := snap
				err := protectErr(o.rc, func() error { return sweep(snap.r, snap.v, sw) })
				attempts := 1
				if err != nil {
					// The failed sweep may have corrupted this worker's
					// sweeper scratches mid-write; replace it before any
					// other realization touches it. The old one is dropped,
					// never released to the free list.
					sw = newSweeper(seed, shards)
				}
				for err != nil && attempts < o.rc.maxAttempts() && o.rc.interrupted() == nil {
					attempts++
					err = protectErr(o.rc, func() error {
						// Retry the realization end-to-end: the snapshot may
						// carry phase streams the failed sweep already
						// consumed, so only a rebuild restores pristine
						// state. Fresh arena and sweeper for the same reason.
						v, berr := build(snap.r, newBuilder(seed, snap.r, retryRNG(seed, n, snap.r), intra, graph.NewCSRArena()))
						if berr != nil {
							return berr
						}
						return sweep(snap.r, v, newSweeper(seed, shards))
					})
				}
				if err != nil {
					errs[snap.r] = o.rc.absorbFailure(seed, snap.r, attempts, err, o.partial)
					continue
				}
				if attempts > 1 {
					o.rc.noteRecovered()
				}
				o.rc.noteProgress()
			}
			sw.release()
		}()
	}
	swg.Wait()
	if err := o.rc.interrupted(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachRealization runs fn for r = 0..n-1 on a bounded worker pool
// (`workers` goroutines; <=0 means GOMAXPROCS), collecting the
// lowest-index error. It is the engine for build-only specs (degree
// distributions, churn traces, robustness curves): with no sweep stage to
// overlap there is nothing to pipeline, but the builder still carries the
// phase streams and the intra-build budget derived from genWorkers, so
// generators parallelize internally when realizations are scarcer than
// the build budget. Determinism: b.rng is derived solely from (seed, r)
// and b.phases from (seed, r, phase); results land in per-index slots, so
// neither worker count nor scheduling order perturbs results. Supervision
// via engineOpts mirrors the pipelined engine's.
func forEachRealization(o engineOpts, workers, genWorkers, n int, seed uint64, fn func(r int, b *builder) error) error {
	if n <= 0 {
		return nil
	}
	pool := resolveWorkers(workers)
	if pool > n {
		pool = n
	}
	if genWorkers <= 0 {
		genWorkers = resolveWorkers(workers)
	} else if pool > genWorkers {
		// An explicit GenWorkers bounds concurrent builds here exactly as
		// in the pipeline — fn IS the build — so `-gen-workers 1` really
		// does cap in-flight topologies on the build-only degree specs,
		// the memory-heaviest runs.
		pool = genWorkers
	}
	intra := (genWorkers + pool - 1) / pool

	root := xrand.New(seed)
	rngs := root.SplitN(n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(pool)
	for w := 0; w < pool; w++ {
		go func() {
			defer wg.Done()
			arena := graph.NewCSRArena()
			for {
				if o.rc.interrupted() != nil {
					return
				}
				r := int(next.Add(1)) - 1
				if r >= n {
					return
				}
				if o.skip != nil && o.skip(r) {
					o.rc.noteProgress()
					continue
				}
				if !o.rc.owns(r) {
					continue
				}
				err := protectErr(o.rc, func() error {
					return fn(r, newBuilder(seed, r, rngs[r], intra, arena))
				})
				attempts := 1
				for err != nil && attempts < o.rc.maxAttempts() && o.rc.interrupted() == nil {
					attempts++
					err = protectErr(o.rc, func() error {
						return fn(r, newBuilder(seed, r, retryRNG(seed, n, r), intra, graph.NewCSRArena()))
					})
				}
				if err != nil {
					errs[r] = o.rc.absorbFailure(seed, r, attempts, err, o.partial)
					continue
				}
				if attempts > 1 {
					o.rc.noteRecovered()
				}
				o.rc.noteProgress()
			}
		}()
	}
	wg.Wait()
	if err := o.rc.interrupted(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// withSweeper runs fn with a standalone source-sweep pool of `shards`
// scratches (<=0 sizes it to GOMAXPROCS), for specs that sweep a topology
// built outside the realization engine (paired-workload claims that probe
// one shared overlay). Stream derivation inside Sources is identical to
// the pipelined engine's.
func withSweeper(shards int, seed uint64, fn func(sw *sweeper) error) error {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sw := newSweeper(seed, shards)
	err := fn(sw)
	if err == nil {
		sw.release()
	}
	return err
}
