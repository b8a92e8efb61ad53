package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// CoordAddr is the coordinator's endpoint.
	CoordAddr string
	// Addr is this worker's listen/reply address (the TCP transport may
	// resolve a port-0 bind).
	Addr string
	// Retries is the worker-local retry budget per leased realization
	// (fresh derived streams, exactly as -retries does locally).
	Retries int
	// Patience bounds how long the worker keeps claiming with no
	// coordinator response before giving up (default 2m). It must cover
	// coordinator restarts and the local reduction gaps between jobs.
	Patience time.Duration
	// ClaimInterval bounds one claim's response wait (default 500ms);
	// unanswered claims are simply re-sent until Patience runs out.
	ClaimInterval time.Duration
}

func (cfg *WorkerConfig) defaults() {
	if cfg.Patience <= 0 {
		cfg.Patience = 2 * time.Minute
	}
	if cfg.ClaimInterval <= 0 {
		cfg.ClaimInterval = 500 * time.Millisecond
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
}

// WorkerStats counts one worker's protocol activity.
type WorkerStats struct {
	Leases      int64 // leases executed
	Records     int64 // slot records streamed to the coordinator
	Completions int64 // leases finished with a verified-able complete
	Failures    int64 // leases reported failed
	Waits       int64 // wait replies received
	// CreditWaits counts records the sink held until an ack freed credit;
	// CreditTimeouts counts leases whose stream starved for a whole lease
	// TTL and were reported failed.
	CreditWaits    int64
	CreditTimeouts int64
}

// RunWorker claims and executes leases from the coordinator until a
// shutdown message, a cancelled context, or an exhausted patience window.
// Each lease runs the spec restricted to the leased realization; every
// record the run would have journaled locally is streamed to the
// coordinator instead, bit-identical by construction (the engines derive
// everything from (seed, realization, phase) streams, never from which
// process runs them).
//
// A cancelled context returns immediately without a farewell — exactly a
// crash as far as the coordinator is concerned; the lease expires and the
// realization is reissued. That is the behavior the chaos tests rely on.
func RunWorker(ctx context.Context, net p2p.Network, cfg WorkerConfig) (WorkerStats, error) {
	cfg.defaults()
	var stats workerCounters

	inbox := make(chan p2p.Envelope, 4096)
	if err := net.Register(cfg.Addr, inbox); err != nil {
		return stats.snapshot(), fmt.Errorf("coord: worker register %s: %w", cfg.Addr, err)
	}
	addr := cfg.Addr
	if ln, ok := net.(interface{ ListenAddr(string) string }); ok {
		addr = ln.ListenAddr(cfg.Addr)
	}
	defer net.Unregister(addr)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The pump decouples transport delivery from lease execution: claim
	// replies flow to resp, acks to the running lease's credit counter
	// (never to resp, where an executor would answer them with a claim),
	// shutdown trips its channel once, anything else (stale replies,
	// foreign kinds) is dropped.
	resp := make(chan wireMsg, 256)
	shutdown := make(chan struct{})
	var shutOnce sync.Once
	w := &worker{net: net, addr: addr, cfg: cfg, stats: &stats, shutdown: shutdown}
	go func() {
		for {
			select {
			case <-wctx.Done():
				return
			case env := <-inbox:
				m, ok := decodeWire(env)
				if !ok {
					continue
				}
				switch m.Type {
				case mtShutdown:
					shutOnce.Do(func() { close(shutdown) })
					continue
				case mtAck:
					if c := w.credit.Load(); c != nil && c.spec == m.Spec && c.r == m.Realization {
						c.ack(m.Records)
					}
					continue
				}
				select {
				case resp <- m:
				default: // executor busy; claims are re-sent anyway
				}
			}
		}
	}()

	lastContact := time.Now()
	for {
		select {
		case <-ctx.Done():
			return stats.snapshot(), ctx.Err()
		case <-shutdown:
			return stats.snapshot(), nil
		default:
		}
		// Claim errors ride the transport's retry/backoff; a still-failing
		// send just burns patience like an unanswered claim.
		_ = sendWire(net, addr, cfg.CoordAddr, wireMsg{Type: mtClaim, Worker: addr})
		timer := time.NewTimer(cfg.ClaimInterval)
		select {
		case <-ctx.Done():
			timer.Stop()
			return stats.snapshot(), ctx.Err()
		case <-shutdown:
			timer.Stop()
			return stats.snapshot(), nil
		case m := <-resp:
			timer.Stop()
			lastContact = time.Now()
			switch m.Type {
			case mtWait:
				stats.waits.Add(1)
				if !sleepCtx(ctx, shutdown, millis(m.HBMillis, 200*time.Millisecond)) {
					continue // interrupted; loop re-checks ctx/shutdown
				}
			case mtLease:
				if err := w.execute(ctx, m); err != nil {
					return stats.snapshot(), err
				}
				lastContact = time.Now()
			}
		case <-timer.C:
			if time.Since(lastContact) > cfg.Patience {
				return stats.snapshot(), fmt.Errorf("coord: no response from coordinator %s for %s", cfg.CoordAddr, cfg.Patience)
			}
		}
	}
}

// workerCounters are WorkerStats in atomic form: the record sink runs on
// the engines' sweep goroutines.
type workerCounters struct {
	leases, records, completions, failures, waits atomic.Int64
	creditWaits, creditTimeouts                   atomic.Int64
}

func (c *workerCounters) snapshot() WorkerStats {
	return WorkerStats{
		Leases:         c.leases.Load(),
		Records:        c.records.Load(),
		Completions:    c.completions.Load(),
		Failures:       c.failures.Load(),
		Waits:          c.waits.Load(),
		CreditWaits:    c.creditWaits.Load(),
		CreditTimeouts: c.creditTimeouts.Load(),
	}
}

type worker struct {
	net      p2p.Network
	addr     string
	cfg      WorkerConfig
	stats    *workerCounters
	shutdown <-chan struct{}
	// credit is the running lease's window, nil between leases; the pump
	// routes acks to it.
	credit atomic.Pointer[credit]
}

// Why a lease's stream stopped waiting for credit: its window stayed full
// for a whole lease TTL, or the coordinator dismissed the fleet.
var (
	errCreditStarved = errors.New("no credit from the coordinator for a lease TTL")
	errShutdown      = errors.New("coordinator shut the fleet down")
)

// credit is one lease's flow-control window: the sink spends one unit per
// result frame, and the coordinator's acks give them back.
type credit struct {
	spec   string
	r      int
	window int
	mu     sync.Mutex
	sent   int // frames the sink has taken credit for
	acked  int // the highest ack count seen
	// wake holds one token after an ack; the one sink that can wait (the
	// stream is serialised) rechecks the window on it.
	wake chan struct{}
}

func newCredit(spec string, r, window int) *credit {
	return &credit{spec: spec, r: r, window: max(window, 1), wake: make(chan struct{}, 1)}
}

// ack records that the coordinator has handled n of this lease's frames.
// Counts are cumulative, so a reordered older ack never takes credit back.
func (c *credit) ack(n int) {
	c.mu.Lock()
	c.acked = max(c.acked, n)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// take spends one unit of credit, waiting while sent − acked ≥ window. It
// gives up with errCreditStarved after patience, and at once on a
// cancelled context or a shutdown; waited reports whether it had to wait.
func (c *credit) take(ctx context.Context, shutdown <-chan struct{}, patience time.Duration) (waited bool, err error) {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		c.mu.Lock()
		if c.sent-c.acked < c.window {
			c.sent++
			c.mu.Unlock()
			return timer != nil, nil
		}
		c.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(patience)
		}
		select {
		case <-c.wake:
		case <-timer.C:
			return true, errCreditStarved
		case <-ctx.Done():
			return true, ctx.Err()
		case <-shutdown:
			return true, errShutdown
		}
	}
}

// execute runs one lease end to end: verify the workload, heartbeat while
// computing, stream records, then report complete or fail. Errors returned
// are fatal to the worker (workload skew, a workload Scale.Validate
// refuses, cancelled context); a failed realization is reported to the
// coordinator and is NOT fatal — the coordinator owns that budget.
func (w *worker) execute(ctx context.Context, m wireMsg) error {
	w.stats.leases.Add(1)
	fail := func(msg string) {
		w.stats.failures.Add(1)
		_ = sendWire(w.net, w.addr, w.cfg.CoordAddr, wireMsg{
			Type: mtFail, Spec: m.Spec, Worker: w.addr,
			Realization: m.Realization, Lease: m.Lease, Err: msg,
		})
	}

	spec, err := sim.Lookup(m.Spec)
	if err != nil {
		// Unknown spec = version skew between coordinator and worker:
		// refuse loudly and stop serving, a skewed worker must never
		// contribute records.
		fail(err.Error())
		return fmt.Errorf("coord: lease for unknown spec %q (worker/coordinator version skew?)", m.Spec)
	}
	if m.Scale == nil {
		fail("lease carries no workload")
		return errors.New("coord: lease carries no workload")
	}
	sc := m.Scale.WorkloadOnly()
	if err := sc.Validate(); err != nil {
		// Refused like version skew: an out-of-range workload never runs.
		fail(err.Error())
		return fmt.Errorf("coord: lease for %s: %w", m.Spec, err)
	}
	if !bytes.Equal(leaseFingerprint(m.Spec, m.Seed, sc), m.Fingerprint) {
		fail("workload fingerprint mismatch")
		return fmt.Errorf("coord: workload fingerprint mismatch for %s (worker/coordinator version skew?)", m.Spec)
	}

	// Heartbeats renew the lease while the build+sweep runs; they stop the
	// moment the run finishes, so a stolen lease stops being renewed by us.
	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	go func() {
		t := time.NewTicker(millis(m.HBMillis, time.Second))
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				_ = sendWire(w.net, w.addr, w.cfg.CoordAddr, wireMsg{
					Type: mtHeartbeat, Spec: m.Spec, Worker: w.addr,
					Realization: m.Realization, Lease: m.Lease,
				})
			}
		}
	}()

	// The sink streams each record as the engines deposit it, then lends
	// its frame back to the sweep that built it: Send retains no Data, so
	// the sweep's next record reuses the buffer. Each frame first takes a
	// unit of the lease's credit, so at most Window frames are ever queued
	// at the coordinator. A send that fails after the transport's own
	// retries, or credit that does not come within a lease TTL, means the
	// record is lost for this lease — the realization must NOT be completed
	// on top of it, and every later record is only released: sending it
	// would pay the transport's retries for a lease already lost. The
	// engines' lanes call the sink concurrently; streamMu makes the stream
	// one sender at a time, as it is on the wire.
	cr := newCredit(m.Spec, m.Realization, m.Window)
	w.credit.Store(cr)
	defer w.credit.Store(nil)
	patience := millis(m.TTLMillis, 10*time.Second)
	var streamMu sync.Mutex
	var lost error
	sink := func(rec sim.SlotRecord) {
		defer rec.Release()
		streamMu.Lock()
		defer streamMu.Unlock()
		if lost != nil {
			return
		}
		waited, err := cr.take(ctx, w.shutdown, patience)
		if waited {
			w.stats.creditWaits.Add(1)
		}
		if errors.Is(err, errCreditStarved) {
			w.stats.creditTimeouts.Add(1)
		}
		if err != nil {
			lost = err
			return
		}
		if err := sendWire(w.net, w.addr, w.cfg.CoordAddr, wireMsg{Type: mtResult, Spec: m.Spec, Record: rec.MarshalBinary()}); err != nil {
			lost = err
			return
		}
		w.stats.records.Add(1)
	}

	rc := sim.NewWorkerRunControl(ctx, w.cfg.Retries, m.Realization, sink)
	sc.Run = rc
	_, runErr := spec.Run(sc, m.Seed)
	hbStop()

	if ctx.Err() != nil {
		// Shutting down mid-lease: no farewell, the lease expires and the
		// realization is stolen. Indistinguishable from a crash, by design.
		return ctx.Err()
	}
	streamMu.Lock()
	sent, streamErr := cr.sent, lost
	streamMu.Unlock()
	switch {
	case streamErr != nil:
		fail(fmt.Sprintf("record stream to coordinator failed: %v", streamErr))
	case runErr == nil,
		// A restricted run computes one realization but still reduces the
		// whole figure; reductions that need more than one realization
		// (power-law fits, all-rows-dropped aggregates) may error AFTER
		// every record was computed and streamed. Records streamed with no
		// engine failures means the work product is intact — the
		// coordinator's final reduction sees all realizations and cannot
		// hit the artifact.
		sent > 0 && len(rc.Failures()) == 0:
		w.stats.completions.Add(1)
		_ = sendWire(w.net, w.addr, w.cfg.CoordAddr, wireMsg{
			Type: mtComplete, Spec: m.Spec, Worker: w.addr,
			Realization: m.Realization, Lease: m.Lease, Records: sent,
		})
	default:
		fail(runErr.Error())
	}
	return nil
}

// sleepCtx waits d unless the context or shutdown interrupts; returns
// true on a full sleep.
func sleepCtx(ctx context.Context, shutdown <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-shutdown:
		return false
	}
}
