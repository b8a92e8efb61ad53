// Package churn implements the paper's stated future work (§VI): "study
// of join/leave scenarios for the overlay topologies while attempting to
// maintain the scale-freeness of the overall topology", with "minimal
// messaging overhead for join and leave operations of peers while keeping
// the scale-freeness in a topology with a hard cutoff".
//
// The simulator evolves an overlay under a configurable arrival/departure
// process at the graph level, deterministically for a given seed. Joins
// follow a preferential or uniform rule restricted to alive peers and the
// hard cutoff; departures are abrupt (crash) or graceful; an optional
// repair policy reconnects under-provisioned neighbors after a departure,
// which is exactly the "minimum of 2-3 links" guideline the paper derives.
// Every link operation and discovery probe is charged to a message
// counter so maintenance overhead is measurable, not asserted.
package churn

import (
	"errors"
	"fmt"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

// Validation errors.
var (
	ErrBadConfig = errors.New("churn: invalid config")
	ErrDead      = errors.New("churn: no alive peers")
)

// JoinRule selects how arriving peers pick their m neighbors.
type JoinRule int

const (
	// JoinPreferential attaches proportionally to alive peers' degrees
	// under the hard cutoff (the paper's PA rule restricted to the alive
	// overlay).
	JoinPreferential JoinRule = iota
	// JoinUniform attaches to uniformly random alive peers (the naive
	// baseline a careless client would implement).
	JoinUniform
)

// String names the join rule.
func (j JoinRule) String() string {
	switch j {
	case JoinPreferential:
		return "preferential"
	case JoinUniform:
		return "uniform"
	default:
		return fmt.Sprintf("joinrule(%d)", int(j))
	}
}

// RepairPolicy selects what happens to a departed peer's neighbors.
type RepairPolicy int

const (
	// NoRepair leaves the hole: neighbors keep their reduced degree.
	NoRepair RepairPolicy = iota
	// ReconnectRepair makes every ex-neighbor whose degree fell below m
	// open replacement links (preferentially, under the cutoff) — the
	// paper's "minimum of 2-3 links" guideline enforced continuously.
	ReconnectRepair
)

// String names the repair policy.
func (r RepairPolicy) String() string {
	switch r {
	case NoRepair:
		return "no-repair"
	case ReconnectRepair:
		return "reconnect"
	default:
		return fmt.Sprintf("repair(%d)", int(r))
	}
}

// Config parameterizes a churn simulation.
type Config struct {
	// InitialN is the size of the starting PA overlay.
	InitialN int
	// M is the number of stubs per joining peer (and the repair target).
	M int
	// KC is the hard cutoff (gen.NoCutoff disables it).
	KC int
	// Join selects the attachment rule for arrivals.
	Join JoinRule
	// Repair selects the post-departure policy.
	Repair RepairPolicy
	// Graceful makes departures announce themselves (costing one message
	// per neighbor) rather than crash silently.
	Graceful bool
}

func (c Config) validate() error {
	if c.InitialN < c.M+2 {
		return fmt.Errorf("%w: InitialN %d too small for M %d", ErrBadConfig, c.InitialN, c.M)
	}
	if c.M < 1 {
		return fmt.Errorf("%w: M %d", ErrBadConfig, c.M)
	}
	if c.KC != gen.NoCutoff && c.KC < c.M {
		return fmt.Errorf("%w: KC %d < M %d", ErrBadConfig, c.KC, c.M)
	}
	return nil
}

// Stats counts the work the overlay performed.
type Stats struct {
	// Joins and Leaves count completed events.
	Joins, Leaves int
	// Messages counts protocol traffic: discovery probes, link
	// establishments (2 messages each: request + accept), leave notices,
	// and repair links.
	Messages int
	// RepairLinks counts replacement edges created by the repair policy.
	RepairLinks int
	// FailedStubs counts stubs arrivals could not fill (all candidates
	// saturated or exhausted).
	FailedStubs int
}

// Simulator evolves one overlay under churn. Node IDs are never reused;
// dead peers stay in the underlying graph with their edges removed.
type Simulator struct {
	cfg   Config
	g     *graph.Graph
	rng   *xrand.RNG
	alive []bool
	// aliveIDs is a swap-remove set of alive node IDs with positions in
	// alivePos, giving O(1) uniform sampling and removal.
	aliveIDs []int32
	alivePos map[int32]int
	stats    Stats
	// degrees is the degree histogram of every node of g, dead ones
	// included (at degree 0), and kMax the largest degree it holds:
	// the Graph.MaxDegree pickTarget needs, kept by addNode, addEdge
	// and removeEdge instead of scanned for every stub.
	degrees []int
	kMax    int
	// scratch is reused across every probe's NF searches; the probe
	// freezes the alive giant once and sweeps it allocation-free.
	scratch search.Scratch
}

// New builds the starting overlay with gen.PA and wraps it in a simulator.
func New(cfg Config, rng *xrand.RNG) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	g, _, err := gen.PA(gen.PAConfig{N: cfg.InitialN, M: cfg.M, KC: cfg.KC}, rng)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		g:        g,
		rng:      rng,
		alive:    make([]bool, g.N()),
		alivePos: make(map[int32]int, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		s.addAlive(int32(v))
		s.count(g.Degree(v), 1)
	}
	return s, nil
}

// count adds delta nodes at degree k to the histogram.
func (s *Simulator) count(k, delta int) {
	for k >= len(s.degrees) {
		s.degrees = append(s.degrees, 0)
	}
	s.degrees[k] += delta
	if delta > 0 && k > s.kMax {
		s.kMax = k
	}
	for s.kMax > 0 && s.degrees[s.kMax] == 0 {
		s.kMax--
	}
}

// moveDegree records that u's degree changed by delta, already applied
// to g. Counting the new degree first keeps kMax from walking down past
// it when u was alone at the old one.
func (s *Simulator) moveDegree(u, delta int) {
	k := s.g.Degree(u)
	s.count(k, 1)
	s.count(k-delta, -1)
}

// addNode adds an isolated node to g and the histogram.
func (s *Simulator) addNode() int32 {
	s.count(0, 1)
	return int32(s.g.AddNode())
}

// addEdge links u and v (u ≠ v, as every churn link is) in g and the
// histogram.
func (s *Simulator) addEdge(u, v int) error {
	if err := s.g.AddEdge(u, v); err != nil {
		return err
	}
	s.moveDegree(u, 1)
	s.moveDegree(v, 1)
	return nil
}

// removeEdge unlinks u and v (u ≠ v) in g and the histogram.
func (s *Simulator) removeEdge(u, v int) {
	if s.g.RemoveEdge(u, v) {
		s.moveDegree(u, -1)
		s.moveDegree(v, -1)
	}
}

func (s *Simulator) addAlive(v int32) {
	for int(v) >= len(s.alive) {
		s.alive = append(s.alive, false)
	}
	s.alive[v] = true
	s.alivePos[v] = len(s.aliveIDs)
	s.aliveIDs = append(s.aliveIDs, v)
}

func (s *Simulator) removeAlive(v int32) {
	pos, ok := s.alivePos[v]
	if !ok {
		return
	}
	last := len(s.aliveIDs) - 1
	moved := s.aliveIDs[last]
	s.aliveIDs[pos] = moved
	s.alivePos[moved] = pos
	s.aliveIDs = s.aliveIDs[:last]
	delete(s.alivePos, v)
	s.alive[v] = false
}

// Alive returns the number of alive peers.
func (s *Simulator) Alive() int { return len(s.aliveIDs) }

// Stats returns the cumulative work counters.
func (s *Simulator) Stats() Stats { return s.stats }

// cutoff returns the effective hard cutoff as a comparable int.
func (s *Simulator) cutoff() int {
	if s.cfg.KC == gen.NoCutoff {
		return int(^uint(0) >> 1)
	}
	return s.cfg.KC
}

// pickTarget selects an attachment target for `joiner` among alive peers:
// not the joiner, not already a neighbor, degree below the cutoff. Under
// JoinPreferential candidates are accepted with probability k/kMax
// (rejection sampling, so no global stub list is needed — mirroring what
// a discovery protocol can implement). Probes are charged to Messages.
// Returns -1 when no candidate was found within the attempt budget.
func (s *Simulator) pickTarget(joiner int32) int32 {
	n := len(s.aliveIDs)
	if n == 0 {
		return -1
	}
	kMax := s.kMax
	if kMax < 1 {
		kMax = 1
	}
	attempts := 8 * (n + 1)
	for a := 0; a < attempts; a++ {
		cand := s.aliveIDs[s.rng.Intn(n)]
		s.stats.Messages++ // discovery probe
		if cand == joiner || s.g.HasEdge(int(joiner), int(cand)) {
			continue
		}
		deg := s.g.Degree(int(cand))
		if deg >= s.cutoff() {
			continue
		}
		if s.cfg.Join == JoinPreferential {
			// Accept proportionally to degree; degree-0 survivors get a
			// floor of 1 so they can rejoin the topology.
			w := deg
			if w < 1 {
				w = 1
			}
			if s.rng.Intn(kMax) >= w {
				continue
			}
		}
		return cand
	}
	return -1
}

// Join adds one peer with up to M links and returns its node ID.
func (s *Simulator) Join() (int, error) {
	if len(s.aliveIDs) == 0 {
		return -1, ErrDead
	}
	v := s.addNode()
	s.addAlive(v)
	for stub := 0; stub < s.cfg.M; stub++ {
		target := s.pickTarget(v)
		if target < 0 {
			s.stats.FailedStubs++
			continue
		}
		if err := s.addEdge(int(v), int(target)); err != nil {
			return -1, err
		}
		s.stats.Messages += 2 // connect request + accept
	}
	s.stats.Joins++
	return int(v), nil
}

// Leave removes one uniformly random alive peer (or the given peer when
// id >= 0) and applies the repair policy. It returns the departed ID.
func (s *Simulator) Leave(id int) (int, error) {
	if len(s.aliveIDs) == 0 {
		return -1, ErrDead
	}
	var v int32
	if id >= 0 {
		v = int32(id)
		if int(v) >= len(s.alive) || !s.alive[v] {
			return -1, fmt.Errorf("churn: peer %d is not alive", id)
		}
	} else {
		v = s.aliveIDs[s.rng.Intn(len(s.aliveIDs))]
	}
	neighbors := append([]int32(nil), s.g.Neighbors(int(v))...)
	if s.cfg.Graceful {
		s.stats.Messages += len(neighbors) // leave notices
	}
	for _, u := range neighbors {
		s.removeEdge(int(v), int(u))
	}
	s.removeAlive(v)
	s.stats.Leaves++

	if s.cfg.Repair == ReconnectRepair {
		for _, u := range neighbors {
			if !s.alive[u] {
				continue
			}
			for s.g.Degree(int(u)) < s.cfg.M {
				target := s.pickTarget(u)
				if target < 0 {
					s.stats.FailedStubs++
					break
				}
				if err := s.addEdge(int(u), int(target)); err != nil {
					return -1, err
				}
				s.stats.Messages += 2
				s.stats.RepairLinks++
			}
		}
	}
	return int(v), nil
}

// Step performs one churn event: a join with probability pJoin, otherwise
// a departure of a random peer.
func (s *Simulator) Step(pJoin float64) error {
	if s.rng.Bool(pJoin) {
		_, err := s.Join()
		return err
	}
	_, err := s.Leave(-1)
	return err
}

// AliveGraph returns a snapshot of the overlay induced on alive peers,
// plus the mapping from new compact IDs back to simulator node IDs.
func (s *Simulator) AliveGraph() (*graph.Frozen, []int) {
	nodes := make([]int, len(s.aliveIDs))
	for i, v := range s.aliveIDs {
		nodes[i] = int(v)
	}
	return s.g.Freeze().InducedFrozen(nodes)
}

// Snapshot is one periodic measurement of overlay health under churn.
type Snapshot struct {
	// Event is the number of churn events completed so far.
	Event int
	// Alive is the number of alive peers.
	Alive int
	// MeanDegree and MaxDegree describe the alive-induced overlay.
	MeanDegree float64
	MaxDegree  int
	// GiantFrac is the fraction of alive peers in the giant component.
	GiantFrac float64
	// Gamma is the fitted degree exponent magnitude (0 when the fit
	// fails, e.g. too few distinct degrees).
	Gamma float64
	// NFHits is mean normalized-flooding hits at the probe TTL from
	// sampled sources on the giant component.
	NFHits float64
	// MessagesPerEvent is cumulative maintenance traffic divided by
	// events (joins + leaves).
	MessagesPerEvent float64
}

// Probe measures the current overlay: connectivity, degree structure, a
// power-law fit, and NF search efficiency with the given TTL averaged
// over `sources` random sources.
func (s *Simulator) Probe(event, sources, ttl int) (Snapshot, error) {
	snap := Snapshot{Event: event, Alive: s.Alive()}
	if s.Alive() == 0 {
		return snap, nil
	}
	sub, _ := s.AliveGraph()
	snap.MaxDegree = sub.MaxDegree()
	snap.MeanDegree = float64(sub.TotalDegree()) / float64(sub.N())
	giant := sub.GiantComponent()
	snap.GiantFrac = float64(len(giant)) / float64(sub.N())
	if fit, err := stats.FitPowerLawMLE(sub.DegreeSequence(), s.cfg.M); err == nil {
		snap.Gamma = fit.Gamma
	}
	if ev := s.stats.Joins + s.stats.Leaves; ev > 0 {
		snap.MessagesPerEvent = float64(s.stats.Messages) / float64(ev)
	}
	if sources > 0 && len(giant) > 1 {
		// One snapshot of the giant serves every NF sweep below.
		fg, _ := sub.InducedFrozen(giant)
		var sum float64
		for i := 0; i < sources; i++ {
			res, err := s.scratch.NormalizedFlood(fg, s.rng.Intn(fg.N()), ttl, s.cfg.M, s.rng)
			if err != nil {
				return snap, err
			}
			sum += float64(res.HitsAt(ttl))
		}
		snap.NFHits = sum / float64(sources)
	}
	return snap, nil
}

// Run performs `events` churn steps with the given join probability,
// probing every `probeEvery` events (and once more at the end). The
// returned trace has at least one snapshot.
func (s *Simulator) Run(events int, pJoin float64, probeEvery, sources, ttl int) ([]Snapshot, error) {
	if events < 0 {
		return nil, fmt.Errorf("%w: events %d", ErrBadConfig, events)
	}
	if probeEvery < 1 {
		probeEvery = events + 1
	}
	var trace []Snapshot
	for e := 1; e <= events; e++ {
		if err := s.Step(pJoin); err != nil {
			if errors.Is(err, ErrDead) {
				break // the overlay died out; report what we have
			}
			return nil, err
		}
		if e%probeEvery == 0 {
			snap, err := s.Probe(e, sources, ttl)
			if err != nil {
				return nil, err
			}
			trace = append(trace, snap)
		}
	}
	if len(trace) == 0 || trace[len(trace)-1].Event != events {
		snap, err := s.Probe(events, sources, ttl)
		if err != nil {
			return nil, err
		}
		trace = append(trace, snap)
	}
	return trace, nil
}
