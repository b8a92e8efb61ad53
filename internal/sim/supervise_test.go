package sim

// Tests for the PR 8 supervision layer: panic containment and
// deterministic retry, permanent-failure budgets with explicit
// accounting, realization-boundary interruption, and the stall watchdog.
// The load-bearing property throughout: supervision NEVER perturbs the
// numbers — a retried run is bit-identical to a never-failed run, and a
// partial run is the never-failed run minus explicitly dropped
// realizations.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

func testRC(retries, maxFailed int) *RunControl {
	return NewRunControl(context.Background(), retries, maxFailed, nil)
}

// TestBuildPanicRetriedBitIdentical injects a one-shot panic into the
// build of realization 1 and requires the retried run to match the
// baseline bit-for-bit: the retry re-derives pristine streams, so the
// surviving attempt is indistinguishable from a never-failed one.
func TestBuildPanicRetriedBitIdentical(t *testing.T) {
	t.Parallel()
	const seed = 31337
	factory := paTopo(500, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: 6, sc: Scale{Sources: 4, Realizations: 3}}
	baseline, err := searchSeries("fl", factory, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}

	var tripped atomic.Bool
	flaky := func(r int, b *builder) (*graph.Frozen, error) {
		if r == 1 && tripped.CompareAndSwap(false, true) {
			panic("injected build panic")
		}
		return factory(r, b)
	}
	rcfg := cfg
	rcfg.sc.Run = testRC(1, 0)
	got, err := searchSeries("fl", flaky, rcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !tripped.Load() {
		t.Fatal("injected panic never fired")
	}
	if !reflect.DeepEqual(got, baseline) {
		t.Fatal("retried series differs from baseline")
	}
	if rcfg.sc.Run.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", rcfg.sc.Run.Recovered())
	}
	if len(rcfg.sc.Run.Failures()) != 0 {
		t.Fatalf("Failures() = %+v, want none", rcfg.sc.Run.Failures())
	}
}

// TestSweepPanicRetriedBitIdentical injects a one-shot panic into the
// sweep stage. The retry must rebuild the realization end-to-end (the
// snapshot may carry consumed phase streams), so the factory runs
// realizations+1 times, and the output is still bit-identical. With four
// source shards (a budget of 4 over one realization) every source of the
// realization panics, each on a different shard, so all but one fire off
// the engine's goroutine: they must reach the supervisor instead of
// killing the process.
func TestSweepPanicRetriedBitIdentical(t *testing.T) {
	t.Parallel()
	const seed = 8888
	inner := paTopo(500, 2, gen.NoCutoff)
	for _, tc := range []struct{ shards, realizations int }{{1, 3}, {4, 1}} {
		shards := tc.shards
		t.Run(fmt.Sprintf("sourceShards=%d", shards), func(t *testing.T) {
			cfg := searchCfg{alg: algFL, maxTTL: 6, sc: Scale{Sources: 4, Realizations: tc.realizations}}
			baseline, err := searchSeries("fl", inner, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			var builds atomic.Int64
			factory := countingFactory(inner, &builds)
			var trips atomic.Int64
			rcfg := cfg
			// One lane of `shards` width: realization 0 is swept first,
			// alone.
			rcfg.sc.Workers = shards
			rcfg.sc.Run = testRC(1, 0)
			got, err := flSweep("fl", factory, rcfg, seed, func(res search.Result, row []float64) {
				// A shard stops at its first panic, so `shards` panics
				// take out the whole pool and the retry sees none.
				if trips.Add(1) <= int64(shards) {
					panic("injected sweep panic")
				}
				for t := range row {
					row[t] = float64(res.HitsAt(t))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, baseline) {
				t.Fatal("sweep-retried series differs from baseline")
			}
			if got, want := builds.Load(), int64(cfg.sc.Realizations+1); got != want {
				t.Fatalf("factory ran %d times, want %d (one rebuild for the retried sweep)", got, want)
			}
			if rcfg.sc.Run.Recovered() != 1 {
				t.Fatalf("Recovered() = %d, want 1", rcfg.sc.Run.Recovered())
			}
		})
	}
}

// TestPermanentFailureWithinBudget kills one realization on every attempt:
// with -max-failed 1 the run survives, records the failure with its stack,
// and the series aggregates the survivors only.
func TestPermanentFailureWithinBudget(t *testing.T) {
	t.Parallel()
	const seed = 4242
	inner := paTopo(500, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: 6, sc: Scale{Sources: 4, Realizations: 3}}
	dead := func(r int, b *builder) (*graph.Frozen, error) {
		if r == 2 {
			panic("realization 2 is cursed")
		}
		return inner(r, b)
	}
	rcfg := cfg
	rcfg.sc.Run = testRC(1, 1)
	got, err := searchSeries("fl", dead, rcfg, seed)
	if err != nil {
		t.Fatalf("run did not survive a budgeted failure: %v", err)
	}
	if len(got.Points) == 0 {
		t.Fatal("partial series is empty")
	}
	frs := rcfg.sc.Run.Failures()
	if len(frs) != 1 {
		t.Fatalf("Failures() = %+v, want exactly one", frs)
	}
	fr := frs[0]
	if fr.Realization != 2 || fr.Attempts != 2 {
		t.Fatalf("failure record = %+v, want realization 2 after 2 attempts", fr)
	}
	if !strings.Contains(fr.Err, "realization 2 is cursed") {
		t.Fatalf("failure error %q does not name the panic", fr.Err)
	}
	if !strings.Contains(fr.Stack, "goroutine") {
		t.Fatalf("failure record carries no stack: %q", fr.Stack)
	}

	// The partial series must equal the baseline computed WITHOUT the
	// cursed realization's contribution: recompute by dropping r=2 rows.
	rows := perSourceFLRows(t, inner, cfg, seed, hitsRow)
	for s := 0; s < cfg.sc.Sources; s++ {
		rows[2*cfg.sc.Sources+s] = nil
	}
	want, err := aggregate("fl", meanRows(blocksOf(rows, cfg.sc.Sources), 0, cfg.sc.Sources), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partial series differs from baseline-minus-failed-realization")
	}
}

// TestAttackAbsorbsBudgetedFailure: attack runs on the journaled series
// path, so -max-failed covers it like any sweep spec. Realization 1 of the
// first series fails on every attempt (its record sink panics, inside the
// supervised build); with a budget of 1 the spec completes, reports the
// failure — what cmd/experiments turns into the PARTIAL note — and that
// series averages realizations 0 and 2 only; with the default budget of 0
// the same failure aborts the run.
func TestAttackAbsorbsBudgetedFailure(t *testing.T) {
	t.Parallel()
	const seed = 777
	sc := tinyScale
	sc.Realizations = 3
	ref, err := Attack(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	cursed := journalTag("attack " + ref[0].Series[0].Label)
	run := func(maxFailed int) ([]Figure, *RunControl, [][][]float64, error) {
		var mu sync.Mutex
		survivors := make([][][]float64, sc.Realizations)
		rc := testRC(1, maxFailed)
		rc.sink = func(rec SlotRecord) {
			if rec.Sub != cursed {
				return
			}
			if rec.Realization == 1 {
				panic("realization 1 is cursed")
			}
			rows, ok := decodeRowBlock(rec.Payload, 2, -1)
			if !ok {
				t.Errorf("record %s is not a two-row block", rec.Key())
			}
			mu.Lock()
			survivors[rec.Realization] = rows
			mu.Unlock()
		}
		s := sc
		s.Run = rc
		figs, err := Attack(s, seed)
		return figs, rc, survivors, err
	}

	figs, rc, survivors, err := run(1)
	if err != nil {
		t.Fatalf("attack did not survive a budgeted failure: %v", err)
	}
	frs := rc.Failures()
	if len(frs) != 1 || frs[0].Realization != 1 || frs[0].Attempts != 2 || !strings.Contains(frs[0].Err, "cursed") {
		t.Fatalf("Failures() = %+v, want realization 1 after 2 attempts", frs)
	}
	want, err := aggregate(ref[0].Series[0].Label, blockRow(survivors, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := figs[0].Series[0]; !reflect.DeepEqual(got, want.withX(survivors[0][0])) {
		t.Fatal("partial series is not the mean of the surviving realizations")
	}
	if reflect.DeepEqual(figs[0].Series[0], ref[0].Series[0]) {
		t.Fatal("the failed realization still averaged in")
	}
	if !reflect.DeepEqual(figs[0].Series[1:], ref[0].Series[1:]) {
		t.Fatal("a failure in one series perturbed the others")
	}

	if _, _, _, err := run(0); err == nil || !strings.Contains(err.Error(), "max-failed") {
		t.Fatalf("err = %v, want the exhausted -max-failed budget", err)
	}
}

// TestFailureBudgetAborts: with the default -max-failed 0, the first
// permanent failure aborts the sweep with an error naming the budget.
func TestFailureBudgetAborts(t *testing.T) {
	t.Parallel()
	factory := func(r int, b *builder) (*graph.Frozen, error) {
		panic("always broken")
	}
	cfg := searchCfg{alg: algFL, maxTTL: 4, sc: Scale{Sources: 2, Realizations: 2, Run: testRC(1, 0)}}
	_, err := searchSeries("fl", factory, cfg, 7)
	if err == nil {
		t.Fatal("run survived with an exhausted failure budget")
	}
	if !strings.Contains(err.Error(), "max-failed") {
		t.Fatalf("error %q does not name the budget", err)
	}
}

// TestStrictEngineFailureIsFatal: specs without a drop path (partial
// unset) must abort on a permanently failed realization even under a
// generous budget — absorbing it would silently average garbage.
func TestStrictEngineFailureIsFatal(t *testing.T) {
	t.Parallel()
	rc := testRC(1, 100)
	err := buildOnly(Scale{Workers: 2, Realizations: 4, Run: rc}, 5, func(r int, b *builder) error {
		if r == 1 {
			return fmt.Errorf("no drop path here")
		}
		return nil
	})
	if err == nil {
		t.Fatal("strict engine absorbed a permanent failure")
	}
	if len(rc.Failures()) != 1 {
		t.Fatalf("Failures() = %+v, want the one fatal record", rc.Failures())
	}
}

// TestErrorRetriedOnce: plain errors (not just panics) are retried too.
func TestErrorRetriedOnce(t *testing.T) {
	t.Parallel()
	var tripped atomic.Bool
	rc := testRC(1, 0)
	err := buildOnly(Scale{Workers: 1, Realizations: 3, Run: rc}, 5, func(r int, b *builder) error {
		if r == 0 && tripped.CompareAndSwap(false, true) {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", rc.Recovered())
	}
}

// TestInterruptStopsAtRealizationBoundary cancels the run context from
// inside a realization callback; the engines must stop dispatching,
// drain without deadlock, and return ErrInterrupted.
func TestInterruptStopsAtRealizationBoundary(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	rc := NewRunControl(ctx, 0, 0, nil)
	var ran atomic.Int64
	err := buildOnly(Scale{Workers: 2, Realizations: 64, Run: rc}, 5, func(r int, b *builder) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := ran.Load(); got >= 64 {
		t.Fatalf("interrupt did not stop dispatch (%d realizations ran)", got)
	}
}

// TestInterruptPipelineNoDeadlock does the same through the pipelined
// engine, where blocked builders must be drained by the sweep workers.
func TestInterruptPipelineNoDeadlock(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	rc := NewRunControl(ctx, 0, 0, nil)
	var swept atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- runJob(Scale{Workers: 2, Realizations: 64, Run: rc}, 5,
			func(r int, b *builder) (int, error) { return r, nil },
			func(r int, v int, sw *sweeper) error {
				if swept.Add(1) == 2 {
					cancel()
				}
				return nil
			})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline deadlocked on interrupt")
	}
}

// TestInterruptedJournalResumes ties interruption to resume: a run
// interrupted partway keeps a valid journal, and the resumed run matches
// the uninterrupted baseline bit-for-bit.
func TestInterruptedJournalResumes(t *testing.T) {
	t.Parallel()
	const seed = 606
	sc := testScaleTiny()
	factory := paTopo(sc.NSearch, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: 6, sc: Scale{Sources: sc.Sources, Realizations: sc.Realizations}}
	baseline, err := searchSeries("fl", factory, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "int.journal")
	j, err := OpenJournal(path, "fig", seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	icfg := cfg
	icfg.sc.Workers = 1 // serial: the cancel point is deterministic
	icfg.sc.Run = NewRunControl(ctx, 0, 0, j)
	var sweeps atomic.Int64
	_, err = flSweep("fl", factory, icfg, seed, func(res search.Result, row []float64) {
		if sweeps.Add(1) == int64(cfg.sc.Sources) { // after realization 0's last source
			cancel()
		}
		for t := range row {
			row[t] = float64(res.HitsAt(t))
		}
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "fig", seed, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Resumed() == 0 {
		t.Fatal("interrupted run journaled nothing")
	}
	rcfg := cfg
	rcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j2)
	resumed, err := searchSeries("fl", factory, rcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !reflect.DeepEqual(resumed, baseline) {
		t.Fatal("resumed-after-interrupt series differs from baseline")
	}
}

// TestDESSweepResumeBitIdentical pins resume for the DES record layout
// (curve-major row blocks), which differs from the CSR sweep's.
func TestDESSweepResumeBitIdentical(t *testing.T) {
	t.Parallel()
	const seed, maxTTL = 515, 6
	factory := paTopo(500, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: maxTTL, sc: Scale{Sources: 4, Realizations: 3}}
	run := func(sim *des.Sim, f *graph.Frozen, lat des.Latency, src int, rng *xrand.RNG) (des.Metrics, error) {
		return sim.Flood(f, src, des.Config{MaxTTL: maxTTL, Latency: lat}, rng)
	}
	sample := func(m des.Metrics, rows [][]float64) {
		for h := 0; h <= maxTTL; h++ {
			rows[0][h] = float64(m.HitsWithin(h))
			rows[1][h] = float64(m.SentBelow(h))
		}
	}
	baseline, err := desSweep(cfg.sc, seed, factory, 0, 0, desSeries{"t", 2, maxTTL + 1, run, sample})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "des.journal")
	j, err := OpenJournal(path, "desflood", seed, testScaleTiny(), false)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := cfg
	jcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j)
	journaled, err := desSweep(jcfg.sc, seed, factory, 0, 0, desSeries{"t", 2, maxTTL + 1, run, sample})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !reflect.DeepEqual(journaled, baseline) {
		t.Fatal("journaling perturbed the DES sweep")
	}

	j2, err := OpenJournal(path, "desflood", seed, testScaleTiny(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Resumed(); got != cfg.sc.Realizations {
		t.Fatalf("Resumed() = %d, want %d", got, cfg.sc.Realizations)
	}
	var builds atomic.Int64
	rcfg := cfg
	rcfg.sc.Workers = 4
	rcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j2)
	resumed, err := desSweep(rcfg.sc, seed, countingFactory(factory, &builds), 0, 0, desSeries{"t", 2, maxTTL + 1, run, sample})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if builds.Load() != 0 {
		t.Fatalf("fully journaled DES resume still built %d topologies", builds.Load())
	}
	if !reflect.DeepEqual(resumed, baseline) {
		t.Fatal("resumed DES sweep differs from baseline")
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for watchdog output.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWatchdogDumpsOnStall arms a tiny watchdog window with no progress
// and requires a goroutine dump; stop() must be idempotent.
func TestWatchdogDumpsOnStall(t *testing.T) {
	t.Parallel()
	rc := testRC(0, 0)
	out := &lockedBuffer{}
	stop := rc.StartWatchdog(20*time.Millisecond, out)
	defer stop()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(out.String(), "goroutine") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "goroutine") {
		t.Fatal("watchdog never dumped goroutine stacks on a stalled run")
	}
	stop()
	stop() // idempotent
}

// TestNilRunControlIsInert: every RunControl method must be nil-safe with
// pre-supervision semantics, since library callers pass no supervisor.
func TestNilRunControlIsInert(t *testing.T) {
	t.Parallel()
	var rc *RunControl
	if rc.interrupted() != nil || rc.maxAttempts() != 1 || rc.journaling() {
		t.Fatal("nil RunControl is not inert")
	}
	rc.noteProgress(1)
	rc.noteRecovered()
	if rc.Progress() != 0 || rc.Recovered() != 0 || rc.Failures() != nil {
		t.Fatal("nil RunControl accumulated state")
	}
	cause := errors.New("x")
	if got := rc.absorbFailure(1, 0, 1, cause, true); got != cause {
		t.Fatalf("nil absorbFailure = %v, want the cause unchanged", got)
	}
	stop := rc.StartWatchdog(time.Second, &lockedBuffer{})
	stop()
	// And without a RunControl, protectCall must NOT recover: panics in
	// unsupervised engines crash loudly, exactly as before this layer
	// existed. (The engine runs workers on their own goroutines, so this
	// is asserted on protectCall itself rather than through the engine.)
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate without a RunControl")
		}
	}()
	_, _ = protectCall(nil, func() (int, error) {
		panic("must propagate")
	})
}
