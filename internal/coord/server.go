package coord

import (
	"context"
	"fmt"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// JobConfig parameterizes one distributed experiment job — one spec at
// one (seed, scale).
type JobConfig struct {
	// Spec is the registry ID; it doubles as the job identity on the wire.
	Spec string
	// Seed and Scale are the run's workload, exactly as a local run's.
	Seed  uint64
	Scale sim.Scale
	// LeaseTTL is how long a lease survives without a heartbeat before the
	// realization is reissued to another worker (default 10s).
	LeaseTTL time.Duration
	// Heartbeat is the renewal interval workers are told to use (default
	// LeaseTTL/5, so a lease tolerates a few lost heartbeats).
	Heartbeat time.Duration
	// WorkerRetries is how many failed worker attempts a realization may
	// burn before the coordinator stops re-leasing it and leaves it to the
	// final local reduction (default 2).
	WorkerRetries int
}

func (cfg *JobConfig) defaults() {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 5
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Millisecond
	}
	if cfg.WorkerRetries < 0 {
		cfg.WorkerRetries = 0
	}
}

// Stats counts one job's lease lifecycle events; the lifecycle tests pin
// the protocol's robustness behavior through them.
type Stats struct {
	LeasesIssued int64 // leases granted, including reissues
	Expired      int64 // leases that missed their heartbeat window
	Reissued     int64 // grants of a realization whose earlier lease expired
	StaleHB      int64 // heartbeats carrying an expired/superseded lease id
	Accepted     int64 // fresh slot records journaled
	DupRecords   int64 // records dropped by first-writer-wins dedup
	BadRecords   int64 // records failing frame/CRC validation
	Completions  int64 // realizations verified complete
	DupDone      int64 // late duplicate completions ignored
	Rejected     int64 // completions whose streamed records did not all arrive
	WorkerFails  int64 // fail messages received
	GivenUp      int64 // realizations left to the final local reduction
	Done         int   // realizations complete at return (journaled markers)
}

// lease is one outstanding (realization → worker) grant.
type lease struct {
	id      uint64
	worker  string
	expires time.Time
}

// Server is the coordinator endpoint: one registered address serving
// lease jobs sequentially. Between jobs it is quiescent — worker claims
// queue in the inbox (or drop; claims are re-sent) until the next RunJob
// drains them. Nothing acks result frames then either, and the next job
// acks only frames of its own spec: a straggler still streaming a finished
// job's realization runs out of credit, waits at most its lease TTL, and
// reports the lease failed. Its records were already superseded.
type Server struct {
	net   p2p.Network
	addr  string
	inbox chan p2p.Envelope
	// workers accumulates every address that ever claimed, across jobs,
	// so ShutdownWorkers can dismiss the whole fleet at session end.
	// RunJob and ShutdownWorkers run on the caller's goroutine.
	workers  map[string]bool
	leaseSeq uint64
	// recycle hands a result frame back to a transport that reuses
	// received buffers (TCPNetwork.Recycle); nil for one that does not.
	recycle func([]byte)
}

// NewServer registers a coordinator endpoint on net at addr (the TCP
// transport may resolve a port-0 bind; Addr reports the final address).
func NewServer(net p2p.Network, addr string) (*Server, error) {
	inbox := make(chan p2p.Envelope, 4096)
	if err := net.Register(addr, inbox); err != nil {
		return nil, fmt.Errorf("coord: register %s: %w", addr, err)
	}
	if ln, ok := net.(interface{ ListenAddr(string) string }); ok {
		addr = ln.ListenAddr(addr)
	}
	s := &Server{net: net, addr: addr, inbox: inbox, workers: map[string]bool{}}
	if rc, ok := net.(interface{ Recycle([]byte) }); ok {
		s.recycle = rc.Recycle
	}
	return s, nil
}

// Addr returns the coordinator's resolved address.
func (s *Server) Addr() string { return s.addr }

// Close unregisters the endpoint. It does not dismiss workers; call
// ShutdownWorkers first when the session is over.
func (s *Server) Close() { s.net.Unregister(s.addr) }

// ShutdownWorkers pushes a shutdown to every worker that ever claimed.
// Best-effort: a worker that misses it exits via its own patience window
// or signal handling.
func (s *Server) ShutdownWorkers() {
	for w := range s.workers {
		_ = sendWire(s.net, s.addr, w, wireMsg{Type: mtShutdown})
	}
}

// RunJob serves one spec's realizations as leases until every one is
// complete or permanently given up, journaling every accepted record and
// every verified completion into j. It returns when the job is settled;
// the caller then runs the normal local spec reduction against j, which
// replays everything journaled and recomputes the remainder — the
// self-healing step that makes the distributed figures byte-identical to
// a local run no matter what the fleet did.
//
// Crash safety: kill the coordinator at any point and rerun with the
// journal opened -resume — done markers and records are recovered, and
// only unfinished realizations are served again.
func (s *Server) RunJob(ctx context.Context, cfg JobConfig, j *sim.Journal) (Stats, error) {
	cfg.defaults()
	var st Stats
	n := cfg.Scale.Realizations
	done := j.DoneRealizations()
	if done == nil {
		done = map[int]bool{}
	}
	// Drop recovered done markers outside [0,n): a corrupt marker must not
	// count toward completion.
	for r := range done {
		if r < 0 || r >= n {
			delete(done, r)
		}
	}
	st.Done = len(done)

	fp := leaseFingerprint(cfg.Spec, cfg.Seed, cfg.Scale)
	wire := cfg.Scale.WorkloadOnly()

	leases := map[int]*lease{}
	// handled counts, per (worker, realization), the result frames handled
	// since the worker's latest lease of that realization: what its acks
	// report.
	handled := map[ackKey]int{}
	fails := map[int]int{}
	givenUp := map[int]bool{}
	expiredEver := map[int]bool{}

	sweep := func(now time.Time) {
		for r, l := range leases {
			if now.After(l.expires) {
				delete(leases, r)
				expiredEver[r] = true
				st.Expired++
			}
		}
	}
	giveUpIfSpent := func(r int) {
		if fails[r] > cfg.WorkerRetries && !givenUp[r] {
			givenUp[r] = true
			st.GivenUp++
		}
	}

	tick := cfg.LeaseTTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for {
		if len(done)+len(givenUp) >= n {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case now := <-ticker.C:
			sweep(now)
		case env := <-s.inbox:
			m, ok := decodeWire(env)
			if !ok {
				continue
			}
			switch m.Type {
			case mtClaim:
				worker := m.Worker
				if worker == "" {
					worker = env.From
				}
				s.workers[worker] = true
				now := time.Now()
				sweep(now)
				r, found := pickRealization(n, done, givenUp, leases)
				if !found {
					_ = sendWire(s.net, s.addr, worker, wireMsg{Type: mtWait, Spec: cfg.Spec, HBMillis: cfg.Heartbeat.Milliseconds()})
					continue
				}
				s.leaseSeq++
				leases[r] = &lease{id: s.leaseSeq, worker: worker, expires: now.Add(cfg.LeaseTTL)}
				delete(handled, ackKey{worker, r})
				st.LeasesIssued++
				if expiredEver[r] {
					st.Reissued++
				}
				_ = sendWire(s.net, s.addr, worker, wireMsg{
					Type: mtLease, Spec: cfg.Spec, Seed: cfg.Seed, Scale: &wire,
					Fingerprint: fp, Realization: r, Lease: s.leaseSeq,
					TTLMillis: cfg.LeaseTTL.Milliseconds(), HBMillis: cfg.Heartbeat.Milliseconds(),
					Window: creditWindow,
				})

			case mtHeartbeat:
				if m.Spec != cfg.Spec {
					continue
				}
				if l := leases[m.Realization]; l != nil && l.id == m.Lease {
					l.expires = time.Now().Add(cfg.LeaseTTL)
				} else {
					st.StaleHB++
				}

			case mtResult:
				r, err := -1, error(nil)
				if m.Spec == cfg.Spec {
					r, err = acceptResult(j, n, m.Record, &st)
				}
				// Journaled (the journal copied it into its file) or dropped,
				// the frame is done with: the transport may read a later
				// frame into it — the one this ack's credit lets the worker
				// send next.
				if s.recycle != nil {
					s.recycle(m.Record)
				}
				if err != nil {
					return st, err
				}
				if r >= 0 {
					k := ackKey{env.From, r}
					handled[k]++
					_ = sendWire(s.net, s.addr, env.From, wireMsg{Type: mtAck, Spec: cfg.Spec, Realization: r, Records: handled[k]})
				}

			case mtComplete:
				if m.Spec != cfg.Spec {
					continue
				}
				r := m.Realization
				if r < 0 || r >= n {
					continue
				}
				if done[r] {
					// The stolen-from worker finishing after the thief: its
					// records were deduped, its completion is a no-op.
					st.DupDone++
					continue
				}
				if m.Records <= 0 || j.RecordCount(r) < m.Records {
					// Some streamed records never arrived (lost frames, or a
					// worker that computed nothing); the realization is NOT
					// done — release the lease so it is recomputed.
					st.Rejected++
					fails[r]++
					if l := leases[r]; l != nil && l.id == m.Lease {
						delete(leases, r)
						expiredEver[r] = true
					}
					giveUpIfSpent(r)
					continue
				}
				if err := j.MarkRealizationDone(r); err != nil {
					return st, fmt.Errorf("coord: journal done marker r=%d: %w", r, err)
				}
				done[r] = true
				delete(leases, r)
				st.Completions++
				st.Done = len(done)

			case mtFail:
				if m.Spec != cfg.Spec {
					continue
				}
				r := m.Realization
				if r < 0 || r >= n || done[r] {
					continue
				}
				st.WorkerFails++
				fails[r]++
				if l := leases[r]; l != nil && l.id == m.Lease {
					delete(leases, r)
					expiredEver[r] = true
				}
				giveUpIfSpent(r)
			}
		}
	}
}

// ackKey names one worker's result stream for one realization.
type ackKey struct {
	worker string
	r      int
}

// acceptResult journals one streamed record frame, first writer wins, and
// returns the record's realization, or -1 for a frame that fails
// validation or names a realization outside [0,n): that one is counted bad
// and dropped, and earns its sender no credit. A journal that cannot
// persist records voids the whole crash-safety contract, so its error
// aborts the job.
func acceptResult(j *sim.Journal, n int, frame []byte, st *Stats) (int, error) {
	rec, err := sim.DecodeSlotRecord(frame)
	if err != nil || rec.Realization < 0 || rec.Realization >= n {
		st.BadRecords++
		return -1, nil
	}
	fresh, err := j.Accept(rec)
	if err != nil {
		return -1, fmt.Errorf("coord: journal record %s: %w", rec.Key(), err)
	}
	if fresh {
		st.Accepted++
	} else {
		st.DupRecords++
	}
	return rec.Realization, nil
}

// pickRealization grants the lowest-index realization that is neither
// complete, given up, nor currently leased. Lowest-first keeps the done
// prefix dense, which makes resumed runs and progress reporting legible.
func pickRealization(n int, done, givenUp map[int]bool, leases map[int]*lease) (int, bool) {
	for r := 0; r < n; r++ {
		if !done[r] && !givenUp[r] && leases[r] == nil {
			return r, true
		}
	}
	return 0, false
}
