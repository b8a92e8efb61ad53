package p2p

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"scalefree/internal/xrand"
)

// FaultConfig parameterizes a FaultyNetwork. The zero value injects
// nothing: every fault class is off, and the wrapper is byte-transparent
// (pinned by test). Each probability enables one fault class
// independently; fault decisions are drawn from a private xrand stream
// seeded by Seed, so a given send sequence sees the same fault schedule
// on every run.
type FaultConfig struct {
	// Seed derives the fault schedule's RNG stream.
	Seed uint64
	// Drop is the probability a send is silently discarded.
	Drop float64
	// Dup is the probability a delivered send is delivered twice.
	Dup float64
	// DelayProb is the probability a send is held back and delivered
	// asynchronously after a uniform delay in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds the injected delay; <= 0 disables delays even when
	// DelayProb > 0.
	MaxDelay time.Duration
	// Reorder is the probability a send is held back and delivered after
	// the next send instead of before it (adjacent swap).
	Reorder float64
}

// Enabled reports whether any fault class can fire.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || (c.DelayProb > 0 && c.MaxDelay > 0) || c.Reorder > 0
}

// FaultStats counts what a FaultyNetwork did to the traffic.
type FaultStats struct {
	// Delivered counts envelopes handed to the inner network (duplicates
	// count once; the extra copy is under Duplicated).
	Delivered int64
	// Dropped counts envelopes discarded by the Drop class.
	Dropped int64
	// Duplicated counts extra copies injected by the Dup class.
	Duplicated int64
	// Delayed counts envelopes deferred by the delay class.
	Delayed int64
	// Reordered counts envelopes held back by the reorder class.
	Reordered int64
	// PartitionDropped counts envelopes discarded because sender and
	// receiver sat in different named partitions.
	PartitionDropped int64
}

// FaultyNetwork wraps any Network and injects drops, delays, duplicates,
// reorders, and named partitions from a deterministic xrand-derived
// schedule — the substrate for reproducible robustness experiments. With
// a zero FaultConfig and no partitions it forwards every call unchanged.
//
// Determinism: fault decisions are consumed from one seeded stream in
// send order, with draws taken only for enabled fault classes (in the
// fixed order drop, dup, delay, reorder). A serialized send sequence
// therefore sees an identical fault schedule across runs; concurrent
// senders interleave draws in arrival order, as any shared transport
// would.
type FaultyNetwork struct {
	inner Network
	cfg   FaultConfig

	mu     sync.Mutex
	rng    *xrand.RNG
	groups map[string]string // addr -> partition name; absent = group ""
	held   *Envelope         // reorder buffer (at most one in flight)
	closed bool
	timers sync.WaitGroup
	// partitioned mirrors groups != nil so the transparent fast path can
	// check it without the mutex.
	partitioned atomic.Bool

	delivered, dropped, duplicated  atomic.Int64
	delayed, reordered, partDropped atomic.Int64
}

var _ Network = (*FaultyNetwork)(nil)

// NewFaultyNetwork wraps inner with the given fault schedule.
func NewFaultyNetwork(inner Network, cfg FaultConfig) *FaultyNetwork {
	return &FaultyNetwork{
		inner: inner,
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed),
	}
}

// Register implements Network by forwarding to the inner transport.
func (f *FaultyNetwork) Register(addr string, inbox chan<- Envelope) error {
	return f.inner.Register(addr, inbox)
}

// Unregister implements Network by forwarding to the inner transport.
func (f *FaultyNetwork) Unregister(addr string) {
	f.inner.Unregister(addr)
}

// Partition assigns addrs to the named group. Envelopes between
// different groups are dropped until Heal; addresses never assigned sit
// in the implicit "" group (so one Partition call splits the named
// members from everyone else). Re-assigning an address moves it.
func (f *FaultyNetwork) Partition(name string, addrs ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.groups == nil {
		f.groups = make(map[string]string)
	}
	for _, a := range addrs {
		f.groups[a] = name
	}
	f.partitioned.Store(true)
}

// Heal removes all partitions.
func (f *FaultyNetwork) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = nil
	f.partitioned.Store(false)
}

// Stats returns a snapshot of the fault counters.
func (f *FaultyNetwork) Stats() FaultStats {
	return FaultStats{
		Delivered:        f.delivered.Load(),
		Dropped:          f.dropped.Load(),
		Duplicated:       f.duplicated.Load(),
		Delayed:          f.delayed.Load(),
		Reordered:        f.reordered.Load(),
		PartitionDropped: f.partDropped.Load(),
	}
}

// Send implements Network. Injected losses (drop, partition) return nil:
// from the sender's point of view the message went out — that is what
// makes them faults rather than errors. Delayed and reordered envelopes
// also return nil and surface later, from a copy of Data taken before Send
// returns; only envelopes forwarded inline propagate the inner transport's
// error, and those (duplicates included) are handed to it before Send
// returns, so they need no copy.
func (f *FaultyNetwork) Send(env Envelope) error {
	// Fast path: nothing can fire, no partitions, no held traffic — stay
	// byte-transparent without even taking the mutex. The schedule path
	// lives in its own method so its delay closure (which makes env
	// escape) cannot force a heap allocation on this path.
	if !f.cfg.Enabled() && !f.partitioned.Load() {
		err := f.inner.Send(env)
		if err == nil {
			f.delivered.Add(1)
		}
		return err
	}
	return f.sendFaulty(env)
}

// sendFaulty runs the full fault schedule for one envelope.
func (f *FaultyNetwork) sendFaulty(env Envelope) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrPeerClosed
	}
	if f.groups != nil && f.groups[env.From] != f.groups[env.To] {
		f.mu.Unlock()
		f.partDropped.Add(1)
		return nil
	}
	// Draw order is fixed (drop, dup, delay, reorder) and skips disabled
	// classes, so a schedule depends only on the enabled set and the send
	// sequence.
	if f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop {
		f.mu.Unlock()
		f.dropped.Add(1)
		return nil
	}
	dup := f.cfg.Dup > 0 && f.rng.Float64() < f.cfg.Dup
	var delay time.Duration
	if f.cfg.DelayProb > 0 && f.cfg.MaxDelay > 0 && f.rng.Float64() < f.cfg.DelayProb {
		delay = time.Duration(f.rng.Float64() * float64(f.cfg.MaxDelay))
		if delay <= 0 {
			delay = 1
		}
	}
	reorder := delay == 0 && f.cfg.Reorder > 0 && f.rng.Float64() < f.cfg.Reorder

	if delay > 0 {
		// The envelope outlives Send: hold a copy of Data, not the caller's.
		env.Msg.Data = bytes.Clone(env.Msg.Data)
		f.timers.Add(1)
		time.AfterFunc(delay, func() {
			defer f.timers.Done()
			f.deliver(env, dup)
		})
		f.mu.Unlock()
		f.delayed.Add(1)
		return nil
	}
	if reorder && f.held == nil {
		// Hold this envelope, with a copy of Data; it goes out right after
		// the next send.
		e := env
		e.Msg.Data = bytes.Clone(env.Msg.Data)
		f.held = &e
		f.mu.Unlock()
		f.reordered.Add(1)
		return nil
	}
	var flush *Envelope
	if f.held != nil {
		flush = f.held
		f.held = nil
	}
	f.mu.Unlock()

	err := f.deliver(env, dup)
	if flush != nil {
		f.deliver(*flush, false)
	}
	return err
}

// deliver forwards one envelope (plus an optional duplicate) to the
// inner transport, outside the schedule mutex so slow transports (TCP
// dials) never stall the fault schedule.
func (f *FaultyNetwork) deliver(env Envelope, dup bool) error {
	err := f.inner.Send(env)
	if err == nil {
		f.delivered.Add(1)
	}
	if dup {
		if f.inner.Send(env) == nil {
			f.duplicated.Add(1)
		}
	}
	return err
}

// Flush delivers any held reordered envelope and waits for all pending
// delayed deliveries — useful before tearing a test down or taking
// counters that must account for every send.
func (f *FaultyNetwork) Flush() {
	f.mu.Lock()
	var flush *Envelope
	if f.held != nil {
		flush = f.held
		f.held = nil
	}
	f.mu.Unlock()
	if flush != nil {
		f.deliver(*flush, false)
	}
	f.timers.Wait()
}

// Close flushes pending injected traffic, stops accepting sends on the
// fault path, and closes the inner network if it supports closing.
func (f *FaultyNetwork) Close() {
	f.mu.Lock()
	f.closed = true
	f.held = nil
	f.mu.Unlock()
	f.timers.Wait()
	if c, ok := f.inner.(interface{ Close() }); ok {
		c.Close()
	}
}
