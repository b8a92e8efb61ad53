// Package des is the message-level discrete-event simulator: searches are
// messages in flight rather than algorithmic traversals. Every kernel in
// internal/search sweeps a frozen CSR in BFS or walk order, which is exact
// for coverage but cannot express the transport effects the paper's
// protocol actually lives with — heterogeneous link latency, message loss,
// duplicate arrivals racing each other to a node. Here a TTL flood or a
// k-walker search is a population of message copies ordered by arrival
// time: per-node inboxes are the first-receipt marks, per-edge latency
// comes from a deterministic distribution, and loss drops copies in
// flight.
//
// Floods resolve a copy when it is sent. All but N − 1 of a flood's
// 2M − N copies arrive as duplicates, which only bump counters, and a
// copy's arrival time, FIFO key and receiver crash time are known at the
// send. So a copy over a cut edge or to a crashed node is FailDropped and
// a lost one Dropped without being queued; a copy to a node that is
// covered, or that a queued copy reaches at an earlier (time, key), can
// only be a duplicate — Delivered, Duplicates and Completion are credited
// at once, and it is not queued either; any other copy becomes its
// receiver's best pending arrival and is queued (one it overtakes stays
// queued and pops as an ordinary duplicate — no decrease-key). Hits,
// HitsByHop and TimeByHop are credited at first-receipt pops. About 1.1 N
// of 3 N copies reach the queue on an m = 2 overlay, and the Metrics are
// bit-identical to queueing them all (TestFloodMetricsDigests): unqueued
// copies still consume a key, so queued ones keep their pop order; only
// first receipts send, so loss draws keep theirs; and the early credits
// are sums and a max. K-walks queue one event per step.
//
// Determinism is the same contract the experiment engine enforces
// everywhere else. Three ingredients:
//
//   - Per-edge latency is a pure function of (seed, realization, edge): an
//     xrand.Phases sub-stream keyed by the canonical edge id, its per-run
//     prefix folded once (xrand.ChunkRoot), so an edge's delay never
//     depends on when (or how often) a message crosses it.
//   - Event ties are broken by a unique uint64 key, giving the queue a
//     total order: two runs with the same inputs pop events identically.
//   - All protocol randomness (NF-style choices, walk steps, loss draws)
//     comes from the caller's per-source stream, consumed in pop order.
//
// With zero latency and zero loss the simulator consumes the RNG in
// exactly the order the CSR kernels do (FIFO keys reproduce BFS level
// order for floods; walker-major keys reproduce walker-by-walker stepping
// for k-walks), so coverage, hop counts, and message counts agree exactly
// with search.Scratch — the correctness gate pinned by the equivalence
// tests here and in internal/sim.
//
// The kernels check only their own indexing (source, TTL or steps,
// walkers); the loss, latency and failure knobs come from a workload
// sim.Scale.Validate has judged. Crashed nodes and cut links stay down.
//
// Allocation discipline follows search.Scratch: a Sim owns the event queue
// (a 4-ary heap), the epoch-stamped per-node marks, and a small arena of
// per-hop series, so repeated runs on one topology allocate nothing after
// the first call. One Sim per goroutine; Metrics alias the Sim's buffers
// and are valid until the next run on the same Sim.
package des

import (
	"fmt"
	"math"

	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// Validation errors.
var (
	ErrBadSource  = fmt.Errorf("des: source node out of range")
	ErrBadTTL     = fmt.Errorf("des: TTL must be >= 0")
	ErrBadWalkers = fmt.Errorf("des: walkers must be >= 1")
)

// Latency is the deterministic per-edge delay model: every edge {u, v}
// delays messages by Base + Jitter·U(u,v), where U(u,v) ∈ [0, 1) is drawn
// from the phase sub-stream keyed by the canonical edge id. The delay is a
// pure function of (Phases.Seed, Phases.Realization, u, v) — independent of
// message order, worker scheduling, and how many times the edge is used —
// which is what keeps DES figures bit-for-bit identical for any worker
// count. The zero value is the
// zero-latency model used by the CSR equivalence gate.
type Latency struct {
	// Base is the fixed delay component shared by all edges.
	Base float64
	// Jitter scales the per-edge uniform component; 0 makes every edge
	// delay exactly Base and skips the per-edge derivation.
	Jitter float64
	// Phases roots the per-edge derivation at (seed, realization).
	Phases xrand.Phases
}

// latencyPhase names the per-edge latency sub-stream family.
const latencyPhase = "des.latency"

// Edge returns the delay of edge {u, v}. Orientation does not matter.
func (l Latency) Edge(u, v int32) float64 { return l.edge(l.root(), u, v) }

// root folds the part of the per-edge derivation that is constant for a
// run — (seed, realization, latencyPhase) — so the kernels pay for it once
// per run instead of once per message.
func (l Latency) root() xrand.ChunkRoot { return l.Phases.ChunkRoot(latencyPhase) }

// edge is Edge on a root hoisted by the caller: the one derivation behind
// Edge, Flood and KWalk. The uniform draw is allocation-free, so a
// million-message run derives latencies without touching the heap.
func (l Latency) edge(root xrand.ChunkRoot, u, v int32) float64 {
	if l.Jitter == 0 {
		return l.Base
	}
	if u > v {
		u, v = v, u
	}
	return l.Base + l.Jitter*root.U01(int(uint64(u)<<32|uint64(uint32(v))))
}

// Config bundles the transport knobs of one DES run. Floods always
// suppress duplicates, as query GUIDs do; the knob ranges are
// sim.Scale.Validate's to check.
type Config struct {
	// MaxTTL is the flood hop budget (ignored by KWalk, which takes an
	// explicit step count).
	MaxTTL int
	// Latency is the per-edge delay model.
	Latency Latency
	// Loss is the per-message loss probability, drawn from the run's RNG
	// at send time. Loss == 0 draws nothing, so lossless runs consume the
	// RNG exactly as the CSR kernels do.
	Loss float64
	// Fail is the node-crash/link-partition schedule. The zero value
	// injects nothing and leaves the run bit-identical to a config
	// without it (pinned by test): failure draws come from their own
	// Phases sub-streams, never from the caller's rng.
	Fail FailPlan
}

// Metrics is the outcome of one DES run. Slices alias the Sim's arena and
// are valid until the next run on the same Sim.
type Metrics struct {
	// Hits is the number of distinct nodes reached, including the source.
	Hits int
	// Sent counts message transmissions (loss is decided after sending, so
	// Sent includes copies that were then dropped).
	Sent int
	// Delivered counts arrivals over edges (the source's self-delivery at
	// time 0 is not an arrival).
	Delivered int
	// Dropped counts copies lost in flight.
	Dropped int
	// FailDropped counts copies lost to injected failures: sends over a
	// partitioned edge and arrivals at a crashed node (both after
	// Sent/SentByHop counted the transmission attempt, like loss). Floods
	// decide both when the copy is sent, k-walks the second on arrival.
	FailDropped int
	// Duplicates counts arrivals at already-covered nodes.
	Duplicates int
	// Completion is the arrival time of the last delivered message — the
	// wall-clock cost of the whole search under the latency model.
	Completion float64
	// HitsByHop is the hop histogram: HitsByHop[h] counts nodes whose
	// first receipt took h hops (floods) or whose earliest receipt across
	// walkers took h steps (k-walks, matching Scratch.KRandomWalks).
	// HitsByHop[0] == 1, the source. Cumulative sums reproduce the CSR
	// kernels' Hits curves under zero latency and loss.
	HitsByHop []int
	// SentByHop[h] counts messages sent by nodes acting at hop h; prefix
	// sums reproduce the CSR kernels' cumulative Messages curves.
	SentByHop []int
	// TimeByHop[h] is the sum of first-receipt arrival times binned by the
	// hop at which each node was first physically reached; dividing by the
	// bin count gives the mean latency-to-hop curve, the latency-vs-hops
	// tradeoff the CSR kernels cannot measure. For k-walks the physical
	// first-arrival hop can exceed the earliest-step value HitsByHop bins
	// by (a later walker may reach the node in fewer steps).
	TimeByHop []float64
}

// HitsWithin returns the number of distinct nodes first reached within h
// hops (the cumulative form matching search.Result.HitsAt).
func (m Metrics) HitsWithin(h int) int {
	if h >= len(m.HitsByHop) {
		h = len(m.HitsByHop) - 1
	}
	total := 0
	for i := 0; i <= h; i++ {
		total += m.HitsByHop[i]
	}
	return total
}

// SentBelow returns the number of messages sent by nodes at hops < h (the
// cumulative form matching search.Result.MessagesAt).
func (m Metrics) SentBelow(h int) int {
	if h > len(m.SentByHop) {
		h = len(m.SentByHop)
	}
	total := 0
	for i := 0; i < h; i++ {
		total += m.SentByHop[i]
	}
	return total
}

// event is one message in flight: it arrives at node (from `from`, having
// taken `hop` hops) at the given time. key totally orders simultaneous
// events — FIFO sequence numbers for floods, walker-major (walker, step)
// ranks for k-walks — so the heap pop order, and with it every RNG draw,
// is deterministic.
type event struct {
	time float64
	key  uint64
	node int32
	from int32
	hop  int32
}

// Sim owns the reusable DES state: the event heap, the epoch-stamped
// per-node marks (cleared in O(1) by bumping the epoch), the earliest
// step values for k-walks, and the per-hop series arena. The zero value is
// ready to use; buffers grow on demand and are retained. A Sim must not be
// copied after first use and is not safe for concurrent use — one Sim per
// goroutine, exactly like search.Scratch.
type Sim struct {
	heap []event
	// pushes counts heap insertions of the current run (the benchmarks
	// report it next to Metrics.Sent).
	pushes int
	epoch  int32
	// mark[v] == epoch: v has received the query. mark[v] == -epoch
	// (floods only): v has not, but a copy to it is queued, the earliest
	// arriving at best[v].
	mark []int32
	best []float64
	// val[v] is the earliest k-walk step at which v was reached; valid
	// only while mark[v] carries the epoch that wrote it.
	val  []int32
	seen []int32
	// intBufs/floatBufs arena per-hop result series reused across runs.
	intBufs      [][]int
	floatBufs    [][]float64
	nInt, nFloat int
}

// NewSim returns a Sim pre-sized for n-node graphs. n may be 0; buffers
// grow on first use either way.
func NewSim(n int) *Sim {
	s := &Sim{}
	s.ensure(n)
	return s
}

func (s *Sim) reset() { s.nInt, s.nFloat, s.pushes = 0, 0, 0 }

func (s *Sim) ensure(n int) {
	if len(s.mark) < n {
		s.mark = make([]int32, n)
		s.best = make([]float64, n)
		s.val = make([]int32, n)
		s.epoch = 0
	}
}

func (s *Sim) newEpoch() int32 {
	if s.epoch == math.MaxInt32 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// intBuf hands out a zeroed length-n series from the arena.
func (s *Sim) intBuf(n int) []int {
	if s.nInt == len(s.intBufs) {
		s.intBufs = append(s.intBufs, nil)
	}
	b := s.intBufs[s.nInt]
	if cap(b) < n {
		b = make([]int, n)
		s.intBufs[s.nInt] = b
	} else {
		b = b[:n]
		for i := range b {
			b[i] = 0
		}
	}
	s.nInt++
	return b
}

// floatBuf hands out a zeroed length-n series from the arena.
func (s *Sim) floatBuf(n int) []float64 {
	if s.nFloat == len(s.floatBufs) {
		s.floatBufs = append(s.floatBufs, nil)
	}
	b := s.floatBufs[s.nFloat]
	if cap(b) < n {
		b = make([]float64, n)
		s.floatBufs[s.nFloat] = b
	} else {
		b = b[:n]
		for i := range b {
			b[i] = 0
		}
	}
	s.nFloat++
	return b
}

// The heap is 4-ary (children of i at 4i+1..4i+4): half the levels of a
// binary heap, and a node's four children share one or two cache lines.
// Both sifts move a hole instead of swapping 32-byte events, and compare
// (time, key) field by field.

// push inserts an event into the heap.
func (s *Sim) push(ev event) {
	s.pushes++
	h := append(s.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if pt := h[p].time; pt < ev.time || (pt == ev.time && h[p].key < ev.key) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	s.heap = h
}

// pop removes the earliest event: the last one sifts down from the root.
func (s *Sim) pop() event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	ev := h[n]
	h = h[:n]
	s.heap = h
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m, mt, mk := c, h[c].time, h[c].key
		for j := c + 1; j < c+4 && j < n; j++ {
			if t := h[j].time; t < mt || (t == mt && h[j].key < mk) {
				m, mt, mk = j, t, h[j].key
			}
		}
		if ev.time < mt || (ev.time == mt && ev.key < mk) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = ev
	}
	return top
}

func validate(f *graph.Frozen, src int) error {
	if src < 0 || src >= f.N() {
		return fmt.Errorf("%w: %d (n=%d)", ErrBadSource, src, f.N())
	}
	return nil
}

// Flood runs a TTL-limited flood from src as messages in flight: the
// source's query copy arrives at itself at time 0, and every node forwards
// on first receipt to all neighbors except the sender, each copy arriving
// after the edge's latency. rng supplies the loss draws, consumed in event
// pop order; it may be nil when cfg.Loss == 0. The Metrics alias s.
//
// With zero latency the FIFO event keys reproduce BFS level order, so a
// lossless run's coverage, hop counts, and message counts equal
// search.Scratch.Flood on the same simple topology exactly.
func (s *Sim) Flood(f *graph.Frozen, src int, cfg Config, rng *xrand.RNG) (Metrics, error) {
	if err := validate(f, src); err != nil {
		return Metrics{}, err
	}
	if cfg.MaxTTL < 0 {
		return Metrics{}, fmt.Errorf("%w: %d", ErrBadTTL, cfg.MaxTTL)
	}
	if rng == nil && cfg.Loss > 0 {
		rng = xrand.New(0)
	}
	s.reset()
	s.ensure(f.N())
	ep := s.newEpoch()
	m := Metrics{
		HitsByHop: s.intBuf(cfg.MaxTTL + 1),
		SentByHop: s.intBuf(cfg.MaxTTL + 1),
		TimeByHop: s.floatBuf(cfg.MaxTTL + 1),
	}
	failing := cfg.Fail.Enabled()
	var crashAt []float64
	var linkSel, linkAt xrand.ChunkRoot
	if failing {
		crashAt = s.crashTimes(cfg.Fail, f.N())
		linkSel, linkAt = cfg.Fail.linkRoots()
		if crashAt[src] <= 0 {
			// The source is down at time 0: its own copy fizzles uncounted
			// and nothing is ever sent.
			return m, nil
		}
	}
	lat, root := cfg.Latency, cfg.Latency.root()
	mark, best := s.mark, s.best
	s.heap = s.heap[:0]
	s.push(event{node: int32(src), from: -1})
	seq := uint64(1)
	for len(s.heap) > 0 {
		ev := s.pop()
		if ev.hop > 0 {
			m.Delivered++
			if ev.time > m.Completion {
				m.Completion = ev.time
			}
		}
		if mark[ev.node] != ep {
			mark[ev.node] = ep
			m.Hits++
			m.HitsByHop[ev.hop]++
			m.TimeByHop[ev.hop] += ev.time
		} else {
			// A queued copy that a later-sent, earlier-arriving one
			// overtook.
			m.Duplicates++
			continue
		}
		if int(ev.hop) == cfg.MaxTTL {
			continue
		}
		for _, w := range f.Neighbors(int(ev.node)) {
			if w == ev.from {
				continue
			}
			m.Sent++
			m.SentByHop[ev.hop]++
			if failing && cfg.Fail.edgeDown(linkSel, linkAt, ev.node, w, ev.time) {
				// Partitioned at send time: the copy never leaves.
				m.FailDropped++
				continue
			}
			if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
				m.Dropped++
				continue
			}
			// Every copy in flight takes a key, queued or not, so the
			// queued ones pop in the order they would among all copies.
			at, key := ev.time+lat.edge(root, ev.node, w), seq
			seq++
			if failing && at >= crashAt[w] {
				// The receiver is down on arrival: lost in flight.
				m.FailDropped++
				continue
			}
			if mk := mark[w]; mk == ep || (mk == -ep && at >= best[w]) {
				// w is covered, or a queued copy reaches it first (at
				// equal times the queued one holds the smaller key):
				// this one can only arrive as a duplicate.
				m.Delivered++
				m.Duplicates++
				if at > m.Completion {
					m.Completion = at
				}
				continue
			}
			mark[w], best[w] = -ep, at
			s.push(event{time: at, key: key, node: w, from: ev.node, hop: ev.hop + 1})
		}
	}
	return m, nil
}

// KWalk runs `walkers` independent non-backtracking random walks of
// `steps` hops from src, each walker a message hopping edge by edge under
// the latency model. A walker picks its next node via search.Step when its
// arrival event is processed, so with zero latency the walker-major event
// keys consume rng exactly as Scratch.KRandomWalks does (walker 0's whole
// walk, then walker 1's, ...), and the earliest-step hop histogram matches
// it exactly. With cfg.Loss > 0 a lost copy kills that walker, as does a
// crashed node or a cut edge; walks never deduplicate. cfg.MaxTTL is
// ignored. The Metrics alias s.
func (s *Sim) KWalk(f *graph.Frozen, src, walkers, steps int, cfg Config, rng *xrand.RNG) (Metrics, error) {
	if err := validate(f, src); err != nil {
		return Metrics{}, err
	}
	if walkers < 1 {
		return Metrics{}, fmt.Errorf("%w: %d", ErrBadWalkers, walkers)
	}
	if steps < 0 {
		return Metrics{}, fmt.Errorf("%w: %d steps", ErrBadTTL, steps)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	s.reset()
	s.ensure(f.N())
	ep := s.newEpoch()
	m := Metrics{
		HitsByHop: s.intBuf(steps + 1),
		SentByHop: s.intBuf(steps + 1),
		TimeByHop: s.floatBuf(steps + 1),
	}
	failing := cfg.Fail.Enabled()
	var crashAt []float64
	var linkSel, linkAt xrand.ChunkRoot
	if failing {
		crashAt = s.crashTimes(cfg.Fail, f.N())
		linkSel, linkAt = cfg.Fail.linkRoots()
	}
	lat, root := cfg.Latency, cfg.Latency.root()
	seen := s.seen[:0]
	s.mark[src] = ep
	s.val[src] = 0
	seen = append(seen, int32(src))
	s.heap = s.heap[:0]
	// Walker-major keys: at equal times walker w's step t outranks walker
	// w+1's step 0, so zero-latency runs step each walker to completion in
	// turn — the CSR kernel's RNG consumption order.
	perWalker := uint64(steps + 1)
	for w := 0; w < walkers; w++ {
		s.push(event{time: 0, key: uint64(w) * perWalker, node: int32(src), from: -1, hop: 0})
	}
	for len(s.heap) > 0 {
		ev := s.pop()
		if failing && ev.time >= crashAt[ev.node] {
			// The node is down: the walker's copy is lost on arrival and
			// the walker dies (a walker starting on a crashed source
			// fizzles uncounted, like the flood's time-0 copy).
			if ev.hop > 0 {
				m.FailDropped++
			}
			continue
		}
		if ev.hop > 0 {
			m.Delivered++
			if ev.time > m.Completion {
				m.Completion = ev.time
			}
			if s.mark[ev.node] != ep {
				s.mark[ev.node] = ep
				s.val[ev.node] = ev.hop
				seen = append(seen, ev.node)
				m.TimeByHop[ev.hop] += ev.time
			} else if ev.hop < s.val[ev.node] {
				s.val[ev.node] = ev.hop
			}
		}
		if int(ev.hop) == steps {
			continue
		}
		next, ok := search.Step(f, int(ev.node), int(ev.from), rng)
		if !ok {
			continue // isolated source: the walker cannot move
		}
		m.Sent++
		m.SentByHop[ev.hop]++
		if failing && cfg.Fail.edgeDown(linkSel, linkAt, ev.node, int32(next), ev.time) {
			m.FailDropped++
			continue // partitioned at send time; the walker dies
		}
		if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
			m.Dropped++
			continue // the copy was lost in flight; the walker dies
		}
		s.push(event{
			time: ev.time + lat.edge(root, ev.node, int32(next)),
			key:  ev.key + 1,
			node: int32(next),
			from: ev.node,
			hop:  ev.hop + 1,
		})
	}
	for _, v := range seen {
		m.HitsByHop[s.val[v]]++
	}
	m.Hits = len(seen)
	s.seen = seen
	return m, nil
}
