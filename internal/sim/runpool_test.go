package sim

// FuzzRunPool is the property test of the lane pool every spec runs on
// (runPool, driven through realizationBatch): synthetic builds and series
// whose every value comes from the pool's streams, checked against a
// sequential model of what the pool must compute. The seed corpus under
// testdata/fuzz/FuzzRunPool reaches every batch shape, budget, failure
// mode and journal cut that the scheduler's contract names.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// poolCase is one decoded FuzzRunPool input: a batch of builds × series
// over R realizations on a budget of workers (-1 to 8; <= 0 is GOMAXPROCS),
// at most two injected faults, an optional supervisor and an optional
// journal cut from a clean run.
type poolCase struct {
	builds, series, R, workers int
	// buildOnly runs every series as the build's own block (nil sweeps).
	buildOnly bool
	// cost picks each task's busy work: its low two bits choose none,
	// random, descending or ascending cost over the task index, so lanes
	// finish out of order; the rest seeds the random costs.
	cost   uint64
	faults []poolFault
	// supervised runs under a RunControl with retries and a -max-failed
	// budget; journaled (supervised only) first journals a clean run, cuts
	// it after keep records and resumes the batch from the cut.
	supervised, journaled bool
	retries, maxFailed    int
	keep                  int
}

// poolFault fails one task: build k's build of realization r, or (sweep)
// series i's sweep of it, by error or (supervised only) panic, on every
// attempt or (transient) the first only.
type poolFault struct {
	k, i, r                  int
	sweep, panics, transient bool
	msg                      string
}

// poolRowLen is the length of every block row.
const poolRowLen = 3

// decodePoolCase maps fuzz bytes onto a poolCase.
func decodePoolCase(builds, series, reals, workers uint8, buildOnly bool, sup uint8, keep uint16, faults [2]uint16, cost uint64) poolCase {
	c := poolCase{
		builds: 1 + int(builds%3), series: 1 + int(series%3), R: 1 + int(reals%6), workers: int(workers%10) - 1,
		buildOnly: buildOnly, cost: cost, keep: int(keep),
	}
	if s := int(sup % 19); s > 0 {
		s--
		c.supervised, c.retries, c.maxFailed, c.journaled = true, s%3, s/3%3, s/9 == 1
	}
	for n, x := range faults {
		take := func(m int) int { v := int(x % uint16(m)); x /= uint16(m); return v }
		kind := take(3)
		f := poolFault{sweep: kind == 2 && !c.buildOnly, panics: take(2) == 1 && c.supervised, transient: take(2) == 1}
		f.k, f.i, f.r = take(c.builds), take(c.series), take(c.R)
		if !f.sweep {
			f.i = 0
		}
		f.msg = fmt.Sprintf("injected fault %c (build %d, series %d, realization %d)", 'A'+n, f.k, f.i, f.r)
		if kind == 0 || slices.ContainsFunc(c.faults, func(g poolFault) bool { return g.k == f.k && g.r == f.r }) {
			continue // one fault per task
		}
		c.faults = append(c.faults, f)
	}
	return c
}

func (c poolCase) tasks() int { return c.builds * c.R }

func poolSeed(k int) uint64 { return 0x5eed_0000_0000 + 977*uint64(k) }

func poolTag(k, i int) string { return fmt.Sprintf("pool build %d series %d", k, i) }

// retires reports whether build k names a retire hook. Build 1 stands for
// a prebuilt overlay, a shared substrate or a carved snapshot: values the
// engine must never retire.
func (c poolCase) retires(k int) bool { return k != 1 }

// spin is task t's busy work: yields, never sleeps.
func (c poolCase) spin(t int) {
	var n int
	switch c.cost % 4 {
	case 1:
		n = int(xrand.NewStream(c.cost, uint64(t)).Uint64() % 16384)
	case 2:
		n = (c.tasks() - t) * 4096
	case 3:
		n = (t + 1) * 4096
	}
	for i := 0; i < n; i += 64 {
		runtime.Gosched()
	}
}

// fault returns the fault injected at build k's realization r, in the
// sweep of series i when sweep is set.
func (c poolCase) fault(k, i, r int, sweep bool) *poolFault {
	for n := range c.faults {
		if f := &c.faults[n]; f.k == k && f.r == r && f.sweep == sweep && (!sweep || f.i == i) {
			return f
		}
	}
	return nil
}

// permanent reports whether f fails every attempt the supervisor allows.
func (c poolCase) permanent(f *poolFault) bool {
	return !f.transient || !c.supervised || c.retries == 0
}

// buildRow is what realization r of build k builds: one draw from its
// legacy stream, one from a phase stream, and its identity.
func buildRow(legacy *xrand.RNG, phases xrand.Phases, k, r int) []float64 {
	return []float64{legacy.Float64(), phases.Stream("pool").Float64(), float64(100*k + r)}
}

// poolSources is how many sources series i of build k sweeps at r.
func poolSources(k, i, r int) int { return 2 + (k+i+r)%5 }

// sweepRow folds the per-source draws of series i at realization r into
// one row, in source order: any change to a stream or to the order shows.
func sweepRow(snap, draws []float64, i int) []float64 {
	acc := snap[0] + snap[1]
	for _, d := range draws {
		acc = acc*0.75 + d
	}
	return []float64{acc, snap[2], float64(i)}
}

// poolModel is what a sequential run of the batch computes.
type poolModel struct {
	rows      [][][][]float64 // [k][i][r], nil where absent
	failures  []*poolFault    // permanent failures, in task order
	progress  int64
	recovered int64
	pending   [][]int // [k][r]: series realization r still has to compute
}

// model runs the batch sequentially. journaled reports the series the
// resumed journal already holds.
func (c poolCase) model(journaled func(k, i, r int) bool) poolModel {
	m := poolModel{rows: make([][][][]float64, c.builds), pending: make([][]int, c.builds)}
	for k := range m.rows {
		seed := poolSeed(k)
		legacy := xrand.New(seed).SplitN(c.R)
		m.rows[k], m.pending[k] = make([][][]float64, c.series), make([]int, c.R)
		for i := range m.rows[k] {
			m.rows[k][i] = make([][]float64, c.R)
		}
		for r := 0; r < c.R; r++ {
			snap := buildRow(legacy[r], xrand.Phases{Seed: seed, Realization: uint64(r)}, k, r)
			value := func(i int) []float64 {
				if c.buildOnly {
					return snap
				}
				draws := make([]float64, poolSources(k, i, r))
				for s := range draws {
					draws[s] = xrand.NewStream(seed, uint64(r)<<8|uint64(i), uint64(s)).Float64()
				}
				return sweepRow(snap, draws, i)
			}
			p := 0
			for i := 0; i < c.series; i++ {
				if journaled(k, i, r) {
					m.rows[k][i][r] = value(i)
					m.progress++
				} else {
					p++
				}
			}
			m.pending[k][r] = p
			if p == 0 {
				continue
			}
			if f := c.fault(k, 0, r, false); f != nil {
				if c.permanent(f) {
					m.failures = append(m.failures, f)
					m.progress++
					continue
				}
				m.recovered++
			}
			m.progress += int64(p)
			stop := c.series // the first series a permanent sweep fault leaves absent
			for i := 0; i < c.series && !c.buildOnly; i++ {
				if f := c.fault(k, i, r, true); f != nil && !journaled(k, i, r) {
					if c.permanent(f) {
						m.failures = append(m.failures, f)
						stop = i
						break
					} else {
						m.recovered++
					}
				}
			}
			switch {
			case c.buildOnly:
			case stop == c.series:
				m.progress += int64(p)
			default:
				m.progress++
			}
			for i := 0; i < stop; i++ {
				if !journaled(k, i, r) {
					m.rows[k][i][r] = value(i)
				}
			}
		}
	}
	return m
}

// poolProbe watches one pool run from inside its builds and sweeps.
type poolProbe struct {
	t            *testing.T
	c            poolCase
	lanes, width int // the case's schedule
	peak         int // the most snapshots allowed alive at once: 3·lanes
	// maxBuilds is lanes, or 2·lanes when a sweep is retried: a retry
	// rebuilds on its sweep lane.
	maxBuilds int

	building, sweeping atomic.Int32 // builds and sweeps in flight

	mu        sync.Mutex
	alive     int
	remaining map[*float64]int // per live snapshot: series left to sweep
	landed    map[[3]int]bool  // (k, i, r) swept (or replayed) so far
	built     map[[2]int]int   // (k, r) -> build calls
	swept     map[[3]int]int   // (k, i, r) -> sweep calls
	badArena  map[*graph.CSRArena]bool
	badSweep  map[*sweeper]bool
	retried   map[*sweeper]bool // sweepers a retry swept a series on cleanly
	busy      sync.Map          // *sweeper -> *atomic.Bool
	overPeak  bool
	// values follows every value a build returned, by its first element's
	// address, to its retirement; retirements counts those retired.
	values      map[*float64]*poolValue
	retirements int
}

// poolValue is one built value's history.
type poolValue struct {
	k, r int
	// first: built by the first build call of its task, not by a retry.
	first bool
	// pending series at the build; clean counts those swept cleanly,
	// failed marks a failed sweep.
	pending, clean  int
	failed, retired bool
}

func (c poolCase) probe(t *testing.T, journaled func(k, i, r int) bool) *poolProbe {
	lanes, width := schedule(c.workers, c.R)
	p := &poolProbe{t: t, c: c, lanes: lanes, width: width, peak: 3 * lanes, maxBuilds: lanes,
		remaining: map[*float64]int{}, landed: map[[3]int]bool{}, built: map[[2]int]int{}, swept: map[[3]int]int{},
		badArena: map[*graph.CSRArena]bool{}, badSweep: map[*sweeper]bool{}, retried: map[*sweeper]bool{},
		values: map[*float64]*poolValue{}}
	if slices.ContainsFunc(c.faults, func(f poolFault) bool { return f.sweep && c.supervised && c.retries > 0 }) {
		p.maxBuilds *= 2
	}
	for k := 0; k < c.builds; k++ {
		for i := 0; i < c.series; i++ {
			for r := 0; r < c.R; r++ {
				p.landed[[3]int{k, i, r}] = journaled(k, i, r)
			}
		}
	}
	return p
}

// fail reports whether the fault f (may be nil) fires on this call, the
// calls-th at its site, raising its panic when it is one.
func (p *poolProbe) fail(f *poolFault, calls int) error {
	if f == nil || (f.transient && calls > 1 && p.c.supervised) {
		return nil
	}
	if f.panics {
		panic(f.msg)
	}
	return errors.New(f.msg)
}

// build is build k's build function.
func (p *poolProbe) build(k int) func(r int, b *builder) ([]float64, error) {
	return func(r int, b *builder) ([]float64, error) {
		if n := p.building.Add(1); int(n) > p.maxBuilds {
			p.t.Errorf("%d builds at once, want at most %d", n, p.maxBuilds)
		}
		defer p.building.Add(-1)
		if b.width != p.width {
			p.t.Errorf("build width %d, want %d", b.width, p.width)
		}
		p.mu.Lock()
		p.built[[2]int{k, r}]++
		calls := p.built[[2]int{k, r}]
		if p.badArena[b.arena] {
			p.t.Errorf("build %d realization %d ran on an arena a failed build used", k, r)
		}
		f := p.c.fault(k, 0, r, false)
		if f != nil && (calls == 1 || !f.transient || !p.c.supervised) {
			p.badArena[b.arena] = true
		}
		p.mu.Unlock()
		p.c.spin(k*p.c.R + r)
		snap := buildRow(b.rng, b.phases, k, r)
		if err := p.fail(f, calls); err != nil {
			return nil, err
		}
		if !p.c.buildOnly {
			p.mu.Lock()
			n := 0
			for i := 0; i < p.c.series; i++ {
				if !p.landed[[3]int{k, i, r}] {
					n++
				}
			}
			p.remaining[&snap[0]] = n
			p.values[&snap[0]] = &poolValue{k: k, r: r, first: calls == 1, pending: n}
			if p.alive++; p.alive > p.peak {
				p.overPeak = true
			}
			p.mu.Unlock()
		}
		return snap, nil
	}
}

// sweep is series i's sweep function of build k.
func (p *poolProbe) sweep(k, i int) func(r int, snap []float64, sw *sweeper) ([]float64, error) {
	return func(r int, snap []float64, sw *sweeper) (row []float64, err error) {
		if n := p.sweeping.Add(1); int(n) > p.lanes {
			p.t.Errorf("%d sweeps at once, want at most %d", n, p.lanes)
		}
		defer p.sweeping.Add(-1)
		if sw.shards != p.width {
			p.t.Errorf("sweeper of %d shards, want %d", sw.shards, p.width)
		}
		inUse, _ := p.busy.LoadOrStore(sw, new(atomic.Bool))
		if !inUse.(*atomic.Bool).CompareAndSwap(false, true) {
			p.t.Errorf("two lanes swept on one sweeper at once (build %d series %d realization %d)", k, i, r)
		} else {
			defer inUse.(*atomic.Bool).Store(false)
		}
		key := [3]int{k, i, r}
		p.mu.Lock()
		p.swept[key]++
		calls := p.swept[key]
		value := p.values[&snap[0]]
		if value.retired {
			p.t.Errorf("build %d series %d realization %d swept a retired value", k, i, r)
		}
		if p.badSweep[sw] {
			p.t.Errorf("build %d series %d realization %d swept on a sweeper a failed sweep used", k, i, r)
		}
		f := p.c.fault(k, i, r, true)
		if f != nil && (calls == 1 || !f.transient || !p.c.supervised) {
			p.badSweep[sw] = true
		}
		p.mu.Unlock()
		ok := false // set on a clean return; a failed sweep ends its snapshot
		defer func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			left := p.remaining[&snap[0]] - 1
			if ok {
				p.landed[key] = true
				if calls > 1 {
					p.retried[sw] = true
				}
				value.clean++
			} else {
				left = 0
				value.failed = true
			}
			p.remaining[&snap[0]] = left
			if left <= 0 {
				delete(p.remaining, &snap[0])
				p.alive--
			}
		}()
		p.c.spin(k*p.c.R + r)
		draws := make([]float64, poolSources(k, i, r))
		err = sw.Sources(uint64(r)<<8|uint64(i), len(draws), func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
			if scratch == nil {
				return errors.New("nil scratch")
			}
			draws[s] = rng.Float64()
			if s == len(draws)-1 {
				return p.fail(f, calls)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ok = true
		return sweepRow(snap, draws, i), nil
	}
}

// retire is the retire hook of every build that names one: a value may be
// retired once, only if its build names a hook, was its task's first build
// call and every series pending at it was swept cleanly.
func (p *poolProbe) retire(snap []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.values[&snap[0]]
	switch {
	case v == nil:
		p.t.Errorf("retired a value no build returned")
		return
	case v.retired:
		p.t.Errorf("build %d realization %d: a value retired twice", v.k, v.r)
	case !p.c.retires(v.k):
		p.t.Errorf("build %d realization %d: retired a value of a build without a retire hook", v.k, v.r)
	case !v.first:
		p.t.Errorf("build %d realization %d: retired the value of a retried build", v.k, v.r)
	case v.failed:
		p.t.Errorf("build %d realization %d: retired a value after a failed sweep", v.k, v.r)
	case v.clean != v.pending:
		p.t.Errorf("build %d realization %d: retired after %d of its %d pending series", v.k, v.r, v.clean, v.pending)
	}
	v.retired = true
	p.retirements++
}

// cleanSweeps counts the tasks whose every pending series a run sweeps
// cleanly on the first attempt, of builds that name a retire hook: what a
// run that returns no error must retire.
func (c poolCase) cleanSweeps(m poolModel, journaled func(k, i, r int) bool) int {
	n := 0
	for k := 0; k < c.builds && !c.buildOnly; k++ {
		for r := 0; r < c.R; r++ {
			clean := c.retires(k) && m.pending[k][r] > 0 && c.fault(k, 0, r, false) == nil
			for i := 0; i < c.series && clean; i++ {
				clean = journaled(k, i, r) || c.fault(k, i, r, true) == nil
			}
			if clean {
				n++
			}
		}
	}
	return n
}

// run runs the batch under rc (nil: unsupervised) on the case's budget.
func (c poolCase) run(p *poolProbe, rc *RunControl) ([][][][]float64, error) {
	builds := make([]blockBuild[[]float64, []float64, []float64], c.builds)
	for k := range builds {
		series := make([]blockSeries[[]float64, []float64, []float64], c.series)
		for i := range series {
			series[i] = blockSeries[[]float64, []float64, []float64]{tag: poolTag(k, i), codec: oneRow(poolRowLen)}
			if !c.buildOnly {
				series[i].sweep = p.sweep(k, i)
			}
		}
		builds[k] = shared(fmt.Sprintf("build %d", k), poolSeed(k), p.build(k), series...)
		if c.retires(k) {
			builds[k].retire = p.retire
		}
	}
	return realizationBatch(Scale{Realizations: c.R, Workers: c.workers, Run: rc}, builds...)
}

// FuzzRunPool checks, for any batch shape, budget, fault and journal cut,
// that the lane pool computes what a sequential run computes:
//
//   - the reductions equal the sequential model's bit for bit (a permanently
//     failed realization within the budget is absent from the series it had
//     not landed);
//   - the returned error, and the failure that trips the -max-failed budget,
//     belong to the lowest (build, realization), and the supervisor records
//     failures in task order;
//   - Progress counts every unit, replayed ones included, and Recovered every
//     realization a retry saved;
//   - a realization whose series are all journaled is never built, a clean
//     one is built once and sweeps each pending series once, and one whose
//     build failed for good sweeps none;
//   - at most lanes builds (and sweeps) run at once, each told the
//     schedule's width, and at most 3·lanes snapshots are alive;
//   - no sweeper is used by two lanes at once, and a batch without sweep
//     faults uses at most one per lane;
//   - no arena or sweeper that saw a failed attempt serves a later task or
//     reaches the free list, and the sweeper of a retry that recovered a
//     sweep does reach it;
//   - a value is retired at most once, never swept after, only by a build
//     that names a retire hook (never one standing for a prebuilt overlay),
//     only if its task's first build call returned it and every pending
//     series swept it cleanly — so never after a shared build's first of
//     several series, a failed sweep or a retry — and a run that returns no
//     error retires one value per task swept cleanly on the first attempt.
func FuzzRunPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, builds, series, reals, workers uint8, buildOnly bool, sup uint8, keep, fault0, fault1 uint16, cost uint64) {
		c := decodePoolCase(builds, series, reals, workers, buildOnly, sup, keep, [2]uint16{fault0, fault1}, cost)
		journaled := func(k, i, r int) bool { return false }
		var rc *RunControl
		if c.supervised {
			var j *Journal
			if c.journaled {
				j, journaled = c.cutJournal(t)
			}
			rc = NewRunControl(context.Background(), c.retries, c.maxFailed, j)
			if j != nil {
				defer j.Close()
			}
		}
		m := c.model(journaled)
		p := c.probe(t, journaled)
		got, err := c.run(p, rc)

		if len(m.failures) > 0 && (!c.supervised || len(m.failures) > c.maxFailed) {
			want := m.failures[0]
			if c.supervised {
				want = m.failures[c.maxFailed]
			}
			if err == nil || !strings.Contains(err.Error(), want.msg) {
				t.Fatalf("%+v: err = %v, want the failure of %q", c, err, want.msg)
			}
			for _, other := range c.faults {
				if other.msg != want.msg && strings.Contains(err.Error(), other.msg) {
					t.Fatalf("%+v: err = %v names %q too", c, err, other.msg)
				}
			}
			if c.supervised {
				c.checkFailures(t, rc.Failures(), m.failures[:c.maxFailed+1], false)
			}
			p.checkFreeList()
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if !reflect.DeepEqual(got, m.rows) {
			t.Fatalf("%+v: reductions differ from the sequential run\n got: %v\nwant: %v", c, got, m.rows)
		}
		if c.supervised {
			c.checkFailures(t, rc.Failures(), m.failures, true)
			if got := rc.Progress(); got != m.progress {
				t.Errorf("%+v: Progress() = %d, want %d", c, got, m.progress)
			}
			if got := rc.Recovered(); got != m.recovered {
				t.Errorf("%+v: Recovered() = %d, want %d", c, got, m.recovered)
			}
		}
		for k := range m.pending {
			for r, n := range m.pending[k] {
				built := p.built[[2]int{k, r}]
				clean := !slices.ContainsFunc(c.faults, func(f poolFault) bool { return f.k == k && f.r == r })
				if n == 0 && built != 0 || n > 0 && clean && built != 1 {
					t.Errorf("%+v: build %d realization %d (%d series pending) built %d times", c, k, r, n, built)
				}
				// A clean realization sweeps each pending series once; one
				// whose build failed for good sweeps none.
				failed := slices.ContainsFunc(m.failures, func(f *poolFault) bool { return !f.sweep && f.k == k && f.r == r })
				for i := 0; i < c.series && !c.buildOnly && (clean || failed); i++ {
					want := 0
					if clean && !journaled(k, i, r) {
						want = 1
					}
					if got := p.swept[[3]int{k, i, r}]; got != want {
						t.Errorf("%+v: build %d series %d realization %d swept %d times, want %d", c, k, i, r, got, want)
					}
				}
			}
		}
		if sweepers := 0; !slices.ContainsFunc(c.faults, func(f poolFault) bool { return f.sweep }) {
			p.busy.Range(func(any, any) bool { sweepers++; return true })
			if sweepers > p.lanes {
				t.Errorf("%+v: %d sweepers on %d lanes", c, sweepers, p.lanes)
			}
		}
		if p.overPeak {
			t.Errorf("%+v: more than %d snapshots alive at once", c, p.peak)
		}
		if want := c.cleanSweeps(m, journaled); p.retirements != want {
			t.Errorf("%+v: %d values retired, want %d", c, p.retirements, want)
		}
		p.checkFreeList()
	})
}

// checkFailures compares the supervisor's failure records with the
// model's, in order; an aborted run (exact unset) may hold more.
func (c poolCase) checkFailures(t *testing.T, got []FailureRecord, want []*poolFault, exact bool) {
	t.Helper()
	if len(got) < len(want) || exact && len(got) != len(want) {
		t.Fatalf("%+v: %d failure records, want %d", c, len(got), len(want))
	}
	for n, f := range want {
		if g := got[n]; g.Stream != poolSeed(f.k) || g.Realization != f.r || !strings.Contains(g.Err, f.msg) {
			t.Fatalf("%+v: failure record %d is %v, want %q", c, n, g, f.msg)
		}
	}
}

// checkFreeList: no arena or sweeper a failed attempt used was released,
// and every sweeper a retry swept on cleanly was, unless it failed later.
func (p *poolProbe) checkFreeList() {
	laneFree.Lock()
	defer laneFree.Unlock()
	for sw := range p.retried {
		if !p.badSweep[sw] && !slices.Contains(laneFree.sweepers, sw) {
			p.t.Errorf("%+v: the sweeper of a recovered sweep never reached the free list", p.c)
		}
	}
	for _, a := range laneFree.arenas {
		if p.badArena[a] {
			p.t.Errorf("%+v: an arena a failed build used reached the free list", p.c)
		}
	}
	for _, sw := range laneFree.sweepers {
		if p.badSweep[sw] {
			p.t.Errorf("%+v: a sweeper a failed sweep used reached the free list", p.c)
		}
	}
}

// cutJournal journals a clean run of the batch, cuts the journal after
// c.keep (mod its length) records, and opens the cut for resume. It
// returns the journal and which (build, series, realization) it holds.
func (c poolCase) cutJournal(t *testing.T) (*Journal, func(k, i, r int) bool) {
	t.Helper()
	dir := t.TempDir()
	sc := Scale{Realizations: c.R}
	open := func(name string, resume bool) *Journal {
		j, err := OpenJournal(filepath.Join(dir, name), "pool", 1, sc, resume)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	full := open("full.journal", false)
	clean := c
	clean.faults = nil
	none := func(k, i, r int) bool { return false }
	if _, err := clean.run(clean.probe(t, none), NewRunControl(context.Background(), 0, 0, full)); err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, "full.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, image)
	if err := os.WriteFile(filepath.Join(dir, "cut.journal"), image[:ends[c.keep%len(ends)]], 0o644); err != nil {
		t.Fatal(err)
	}
	cut := open("cut.journal", true)
	held := map[[3]int]bool{}
	for k := 0; k < c.builds; k++ {
		for i := 0; i < c.series; i++ {
			for r := 0; r < c.R; r++ {
				_, held[[3]int{k, i, r}] = cut.payloadOf(journalKey{kind: recSweepSlots, stream: poolSeed(k), sub: journalTag(poolTag(k, i)), r: r})
			}
		}
	}
	return cut, func(k, i, r int) bool { return held[[3]int{k, i, r}] }
}

// TestLanePoolNoBarrier: a batch has no barrier between its builds. Build
// 0's last realization waits, on a channel, until build 1's first has
// started building — which a pool with a barrier between builds never lets
// happen, so a barrier deadlocks here and the test binary's -timeout
// reports it.
func TestLanePoolNoBarrier(t *testing.T) {
	t.Parallel()
	const R = 3
	started := make(chan struct{})
	job := func(k int) engineJob[int] {
		return engineJob[int]{
			seed: uint64(k),
			build: func(r int, _ *builder) (int, error) {
				switch {
				case k == 0 && r == R-1:
					<-started
				case k == 1 && r == 0:
					close(started)
				}
				return r, nil
			},
			sweep: func(int, int, *sweeper) error { return nil },
		}
	}
	if err := runPool(Scale{Realizations: R, Workers: 2}, job(0), job(1)); err != nil {
		t.Fatal(err)
	}
}
