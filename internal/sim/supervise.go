package sim

// Run supervision for the realization engine: panic recovery, bounded
// retries, a permanent-failure budget, cooperative interruption, and a
// stall watchdog. A *RunControl rides into the engine in Scale.Run
// (cmd/experiments sets it); every method is
// nil-receiver-safe, so library callers and tests that pass no control
// get exactly the pre-supervision behavior: panics propagate, the first
// error aborts, nothing is journaled.
//
// Retries are deterministic by construction: a failed realization r is
// re-attempted from a freshly derived xrand.New(seed).SplitN(n)[r] stream
// and a fresh arena/sweeper, so a transient failure's surviving attempt
// produces the same bits the realization would have produced had it never
// failed — the supervision layer cannot perturb figures, only omit
// explicitly-accounted realizations from them.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInterrupted marks a run stopped cleanly at a realization boundary by
// signal/context cancellation. cmd/experiments maps it to a distinct
// partial-run exit status.
var ErrInterrupted = errors.New("sim: run interrupted")

// FailureRecord is one permanently failed realization: which sweep
// (engine seed), which realization, how many attempts were burned, the
// final error, and — when the failure was a recovered panic — the stack.
type FailureRecord struct {
	Stream      uint64
	Realization int
	Attempts    int
	Err         string
	Stack       string
}

func (fr FailureRecord) String() string {
	return fmt.Sprintf("realization %d of stream %#x failed after %d attempt(s): %s",
		fr.Realization, fr.Stream, fr.Attempts, fr.Err)
}

// panicError carries a recovered panic value and its stack through the
// error-returning retry path.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// shardPanic is the value sweeper.each re-raises on the calling goroutine
// for a panic caught on a shard goroutine. protectCall unwraps it, so the
// failure record carries the shard's stack rather than the re-raise site's;
// with no supervisor it crashes the process and prints that stack.
type shardPanic struct{ *panicError }

func (p shardPanic) Error() string {
	return fmt.Sprintf("%v [on a sweep shard]\n\n%s", p.val, p.stack)
}

// protectCall runs fn, converting a panic into a *panicError. When rc is
// nil there is no supervisor to hand the failure to, so the panic
// propagates exactly as before.
func protectCall[T any](rc *RunControl, fn func() (T, error)) (out T, err error) {
	if rc == nil {
		return fn()
	}
	defer func() {
		switch v := recover().(type) {
		case nil:
		case shardPanic:
			err = v.panicError
		default:
			err = &panicError{val: v, stack: debug.Stack()}
		}
	}()
	return fn()
}

// protectErr is protectCall for error-only callbacks.
func protectErr(rc *RunControl, fn func() error) error {
	_, err := protectCall(rc, func() (struct{}, error) { return struct{}{}, fn() })
	return err
}

// RunControl supervises every realization the engine runs in one experiment.
type RunControl struct {
	ctx       context.Context
	retries   int
	maxFailed int
	journal   *Journal

	// Distributed-worker mode (see dist.go and internal/coord): only
	// restricts the engine to the realizations this process leases, and
	// sink — set instead of a journal — receives every record the run
	// would have journaled, in wire form, for streaming to a coordinator.
	only func(r int) bool
	sink func(SlotRecord)

	progress  atomic.Int64
	recovered atomic.Int64

	mu       sync.Mutex
	failures []FailureRecord
	abort    error
	claims   map[journalClaimKey]string
}

// NewRunControl builds a supervisor: ctx stops the run at realization
// boundaries, retries is the number of re-attempts per failed realization,
// maxFailed the budget of permanently failed realizations a journaled
// sweep may absorb before the run aborts, and j (optional) the journal
// that checkpoints completed realizations and failure records.
func NewRunControl(ctx context.Context, retries, maxFailed int, j *Journal) *RunControl {
	if ctx == nil {
		ctx = context.Background()
	}
	if retries < 0 {
		retries = 0
	}
	if maxFailed < 0 {
		maxFailed = 0
	}
	return &RunControl{ctx: ctx, retries: retries, maxFailed: maxFailed, journal: j}
}

// NewWorkerRunControl builds the supervisor for one distributed worker's
// lease: the engine runs only realization r (every other index is skipped
// without building anything), and every record the run would have
// journaled is handed to sink in wire form instead. sink may keep a record
// for good, or call its Release before returning to lend the frame back to
// the sweep that built it. Failures are strict (maxFailed=0): a worker
// that cannot compute its one realization reports the failure to its
// coordinator rather than papering over it locally — the coordinator owns
// the -max-failed budget.
func NewWorkerRunControl(ctx context.Context, retries, r int, sink func(SlotRecord)) *RunControl {
	rc := NewRunControl(ctx, retries, 0, nil)
	rc.only = func(i int) bool { return i == r }
	rc.sink = sink
	return rc
}

// owns reports whether this run should compute realization r. Always true
// outside distributed-worker mode.
func (rc *RunControl) owns(r int) bool {
	if rc == nil || rc.only == nil {
		return true
	}
	return rc.only(r)
}

// interrupted reports why the run should stop dispatching realizations:
// a cancelled context or an armed failure-budget abort. Engines check it
// before every dispatch, so cancellation lands at realization boundaries.
func (rc *RunControl) interrupted() error {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	abort := rc.abort
	rc.mu.Unlock()
	if abort != nil {
		return abort
	}
	if rc.ctx.Err() != nil {
		return fmt.Errorf("%w (%v)", ErrInterrupted, context.Cause(rc.ctx))
	}
	return nil
}

// maxAttempts is how many times a realization may run: 1 without a
// supervisor, retries+1 with one.
func (rc *RunControl) maxAttempts() int {
	if rc == nil {
		return 1
	}
	return rc.retries + 1
}

// noteProgress feeds the stall watchdog: any realization-level step
// (build done, sweep done, replay, failure) counts as progress, one unit
// per journaled series it serves.
func (rc *RunControl) noteProgress(units int) {
	if rc != nil {
		rc.progress.Add(int64(units))
	}
}

// noteRecovered counts a realization that failed at least once but
// succeeded on retry.
func (rc *RunControl) noteRecovered() {
	if rc != nil {
		rc.recovered.Add(1)
	}
}

// Progress returns the monotone progress counter (exported for tests and
// external watchdogs).
func (rc *RunControl) Progress() int64 {
	if rc == nil {
		return 0
	}
	return rc.progress.Load()
}

// Recovered reports how many realizations succeeded only after a retry.
func (rc *RunControl) Recovered() int64 {
	if rc == nil {
		return 0
	}
	return rc.recovered.Load()
}

// Failures returns a copy of the permanent failure records accumulated so
// far (this run only; InspectJournal reads the ones a journal holds).
func (rc *RunControl) Failures() []FailureRecord {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]FailureRecord(nil), rc.failures...)
}

// absorbFailure records a realization that failed all its attempts.
// For journaled series (partial=true) the failure is absorbed while the
// permanent-failure count stays within maxFailed — the series continues
// and its reduction finds the realization's block absent; past the budget
// the run arms an abort. Strict callers (partial=false) and
// unsupervised runs get the wrapped cause back, which aborts the engine
// exactly like any realization error always has.
func (rc *RunControl) absorbFailure(stream uint64, r, attempts int, cause error, partial bool) error {
	if rc == nil {
		// An unsupervised engine reports the callback's error untouched,
		// exactly as it always has.
		return cause
	}
	wrapped := fmt.Errorf("sim: realization %d (stream %#x) failed after %d attempt(s): %w", r, stream, attempts, cause)
	fr := FailureRecord{Stream: stream, Realization: r, Attempts: attempts, Err: cause.Error()}
	var pe *panicError
	if errors.As(cause, &pe) {
		fr.Stack = string(pe.stack)
	}
	// Best effort: the failure record is for post-mortems and resume-time
	// accounting, not correctness (it does not mark the realization done).
	rc.journal.appendFrame(encodeFrame(journalKey{kind: recFailure, stream: stream, r: r}, encodeFailure(fr)))
	rc.noteProgress(1)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.failures = append(rc.failures, fr)
	if !partial {
		return wrapped
	}
	if len(rc.failures) > rc.maxFailed {
		if rc.abort == nil {
			rc.abort = fmt.Errorf("sim: %d permanently failed realization(s) exceed the -max-failed budget of %d (last: %w)",
				len(rc.failures), rc.maxFailed, cause)
		}
		return rc.abort
	}
	return nil
}

// journaling reports whether completed realizations should be checkpointed
// — to a journal file, or (worker mode) to a record sink.
func (rc *RunControl) journaling() bool {
	return rc != nil && (rc.journal != nil || rc.sink != nil)
}

// journalClaimKey identifies one journaled record family: every record a
// helper writes for one series shares its (kind, stream, sub).
type journalClaimKey struct {
	kind        uint8
	stream, sub uint64
}

// journalClaim registers a (kind, stream, sub) record family under its
// human-readable tag; no-op when not journaling. Within one run every
// family is claimed exactly once (a resumed run re-claims in a fresh
// process), so ANY duplicate means two series would overwrite each other's
// records and silently replay each other's rows on resume — the exact
// corruption a checkpoint exists to prevent. The guard turns that into a
// loud error on the very first checkpointed run, not only after a crash:
// it caught fig9's PA/HAPA m=1 panels (same seed offset, same label
// format) and Messaging's hits-vs-messages pair (same label, same seed,
// different metric). Sink mode keeps the guard too: a collision would make
// two series' records indistinguishable on the coordinator.
func (rc *RunControl) journalClaim(kind uint8, stream, sub uint64, tag string) error {
	if !rc.journaling() {
		return nil
	}
	k := journalClaimKey{kind: kind, stream: stream, sub: sub}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.claims == nil {
		rc.claims = make(map[journalClaimKey]string)
	}
	if prev, ok := rc.claims[k]; ok {
		return fmt.Errorf("sim: journal key collision: series %q and %q both checkpoint under (kind=%d, stream=%#x, sub=%#x); give one a distinct tag or seed",
			prev, tag, k.kind, k.stream, k.sub)
	}
	rc.claims[k] = tag
	return nil
}

// journalPayload hands use the payload journaled under k, if any (see
// Journal.replay for what use may do with it). Worker sinks never replay —
// the coordinator's journal owns resume.
func (rc *RunControl) journalPayload(k journalKey, use func(payload []byte)) bool {
	return rc != nil && rc.journal.replay(k, use)
}

// journalAppend checkpoints one completed realization's contribution, as
// the sealed frame its codec built, and reports whether the caller may
// reuse the frame's buffer. A nil frame (encoder refused) is skipped;
// append errors are sticky on the journal and surface through Flush/Close
// in cmd/experiments. A journal copies the frame into its file, so the
// buffer is the caller's again at once. In worker mode the record goes to
// the sink instead — same key, same bits, still carrying its frame — and
// the buffer is the caller's again only if the sink called the record's
// Release, which sets *back; with a nil back the sink keeps the frame.
func (rc *RunControl) journalAppend(frame []byte, back *bool) bool {
	if !rc.journaling() || frame == nil {
		return true
	}
	if rc.journal != nil {
		rc.journal.appendFrame(frame)
		return true
	}
	k := decodeKey(frame[frameHeaderLen:])
	if back != nil {
		*back = false
	}
	rc.sink(SlotRecord{Kind: k.kind, Stream: k.stream, Sub: k.sub, Realization: k.r, Payload: frame[frameOverhead:], frame: frame, back: back})
	return back != nil && *back
}

// StartWatchdog arms a stall watchdog: if the progress counter does not
// move for a full window, all goroutine stacks are dumped to out (then the
// watchdog re-arms, so a genuinely stuck run dumps once per window). The
// returned stop function disarms it. window <= 0 disables the watchdog.
func (rc *RunControl) StartWatchdog(window time.Duration, out io.Writer) (stop func()) {
	if rc == nil || window <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		step := window / 4
		if step <= 0 {
			step = time.Millisecond
		}
		tick := time.NewTicker(step)
		defer tick.Stop()
		last := rc.progress.Load()
		quietSince := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				cur := rc.progress.Load()
				if cur != last {
					last = cur
					quietSince = now
					continue
				}
				if now.Sub(quietSince) < window {
					continue
				}
				buf := make([]byte, 1<<20)
				for {
					n := runtime.Stack(buf, true)
					if n < len(buf) {
						buf = buf[:n]
						break
					}
					buf = make([]byte, 2*len(buf))
				}
				fmt.Fprintf(out, "sim: watchdog: no realization progress for %s; goroutine dump follows\n%s\n", window, buf)
				quietSince = now // re-arm
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
