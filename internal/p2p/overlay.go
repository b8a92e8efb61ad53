package p2p

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// msDuration converts whole milliseconds to a time.Duration.
func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// Overlay manages a population of in-process peers: bootstrapping, bulk
// joins, topology snapshots, and churn. It is the bridge between the live
// runtime and the analysis stack (internal/graph, internal/stats): grow an
// overlay with real protocol messages, then snapshot it as a graph.Graph
// and measure exactly what the paper measures.
type Overlay struct {
	// Net is the overlay's transport (a fresh InMemoryNetwork unless
	// OverlayConfig.Transport supplied one — e.g. a FaultyNetwork for
	// robustness experiments).
	Net Network

	cfg OverlayConfig

	mu     sync.Mutex
	peers  map[string]*Peer
	order  []string // join order, for deterministic snapshots
	nextID int
	rng    *xrand.RNG
}

// OverlayConfig parameterizes a peer population.
type OverlayConfig struct {
	// M, KC, TauSub are applied to every spawned peer (paper notation).
	M, KC, TauSub int
	// Strategy selects the join protocol.
	Strategy JoinStrategy
	// Seed derives every peer's RNG stream.
	Seed uint64
	// AddrPrefix names peers addrPrefix0, addrPrefix1, ...; defaults to
	// "peer".
	AddrPrefix string
	// DiscoverWindow overrides the per-peer reply-collection window
	// (shorter windows make big in-process overlays build faster).
	DiscoverWindow int // milliseconds; 0 = default
	// BehaviorFor, when non-nil, assigns a Behavior to the i-th spawned
	// peer (0-based) — the hook population experiments use to mix
	// cooperative and uncooperative peers deterministically.
	BehaviorFor func(i int) Behavior
	// Transport, when non-nil, is the network the overlay runs on (e.g. a
	// FaultyNetwork wrapping an InMemoryNetwork); nil means a fresh
	// InMemoryNetwork. Shutdown closes it if it supports closing.
	Transport Network
}

// NewOverlay returns an empty overlay on a fresh in-memory network.
func NewOverlay(cfg OverlayConfig) (*Overlay, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("%w: m=%d", ErrBadConfig, cfg.M)
	}
	if cfg.TauSub < 1 {
		cfg.TauSub = 4
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = JoinDAPA
	}
	if cfg.AddrPrefix == "" {
		cfg.AddrPrefix = "peer"
	}
	net := cfg.Transport
	if net == nil {
		net = NewInMemoryNetwork()
	}
	return &Overlay{
		Net:   net,
		cfg:   cfg,
		peers: make(map[string]*Peer),
		rng:   xrand.New(cfg.Seed),
	}, nil
}

// Size returns the current number of live peers.
func (o *Overlay) Size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.peers)
}

// Peer returns the live peer at addr, or nil.
func (o *Overlay) Peer(addr string) *Peer {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.peers[addr]
}

// Addrs returns the live peer addresses in join order.
func (o *Overlay) Addrs() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.order...)
}

// RandomAddr returns a uniformly random live peer address, or "".
func (o *Overlay) RandomAddr() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.order) == 0 {
		return ""
	}
	return o.order[o.rng.Intn(len(o.order))]
}

// Spawn creates one peer with the overlay's parameters and the given
// content keys, without joining it to anything. The first spawned peer is
// the natural bootstrap.
func (o *Overlay) Spawn(keys ...string) (*Peer, error) {
	o.mu.Lock()
	id := o.nextID
	addr := o.cfg.AddrPrefix + strconv.Itoa(id)
	o.nextID++
	seed := o.rng.Uint64()
	o.mu.Unlock()

	cfg := Config{
		Addr: addr, M: o.cfg.M, KC: o.cfg.KC, TauSub: o.cfg.TauSub,
		Keys: keys, Seed: seed,
	}
	if o.cfg.BehaviorFor != nil {
		cfg.Behavior = o.cfg.BehaviorFor(id)
	}
	if o.cfg.DiscoverWindow > 0 {
		cfg.DiscoverWindow = msDuration(o.cfg.DiscoverWindow)
	}
	p, err := NewPeer(cfg, o.Net)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.peers[addr] = p
	o.order = append(o.order, addr)
	o.mu.Unlock()
	return p, nil
}

// SpawnJoin spawns a peer and joins it through a random existing peer. The
// very first peer skips joining (it seeds the overlay).
func (o *Overlay) SpawnJoin(keys ...string) (*Peer, error) {
	bootstrap := o.RandomAddr()
	p, err := o.Spawn(keys...)
	if err != nil {
		return nil, err
	}
	if bootstrap == "" {
		return p, nil
	}
	if _, err := p.Join(bootstrap, o.cfg.Strategy); err != nil {
		return p, fmt.Errorf("join %s via %s: %w", p.Addr(), bootstrap, err)
	}
	return p, nil
}

// Grow spawns and joins n peers sequentially, the live analogue of the
// paper's growth models. Content keys can be attached per peer via the
// optional keysFor callback.
func (o *Overlay) Grow(n int, keysFor func(i int) []string) error {
	for i := 0; i < n; i++ {
		var keys []string
		if keysFor != nil {
			keys = keysFor(i)
		}
		if _, err := o.SpawnJoin(keys...); err != nil {
			return fmt.Errorf("grow peer %d: %w", i, err)
		}
	}
	return nil
}

// Remove makes the peer at addr leave gracefully (or crash if graceful is
// false) and forgets it.
func (o *Overlay) Remove(addr string, graceful bool) {
	o.mu.Lock()
	p := o.peers[addr]
	delete(o.peers, addr)
	for i, a := range o.order {
		if a == addr {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
	o.mu.Unlock()
	if p == nil {
		return
	}
	if graceful {
		p.Leave()
	} else {
		p.Close()
	}
}

// Shutdown closes every peer and the network.
func (o *Overlay) Shutdown() {
	o.mu.Lock()
	peers := make([]*Peer, 0, len(o.peers))
	for _, p := range o.peers {
		peers = append(peers, p)
	}
	o.peers = make(map[string]*Peer)
	o.order = nil
	o.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			p.Close()
		}(p)
	}
	wg.Wait()
	if c, ok := o.Net.(interface{ Close() }); ok {
		c.Close()
	}
}

// Maintain implements the paper's §VI future work: peers whose degree has
// fallen below M (because neighbors left or crashed) re-run the join
// protocol through a random live peer, restoring connectedness while the
// hard cutoff still bounds everyone's load. It returns the number of peers
// repaired. Join failures are tolerated (the peer will be retried on the
// next maintenance round).
func (o *Overlay) Maintain() int {
	o.mu.Lock()
	peers := make([]*Peer, 0, len(o.peers))
	for _, p := range o.peers {
		peers = append(peers, p)
	}
	o.mu.Unlock()

	// Sweep dead links first: crashed neighbors still occupy degree slots
	// and would mask the deficit.
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			p.PruneDead()
		}(p)
	}
	wg.Wait()

	repaired := 0
	for _, p := range peers {
		if p.Degree() >= o.cfg.M {
			continue
		}
		bootstrap := o.RandomAddr()
		if bootstrap == "" || bootstrap == p.Addr() {
			continue
		}
		if _, err := p.Join(bootstrap, o.cfg.Strategy); err == nil {
			repaired++
		}
	}
	return repaired
}

// RecoveryReport describes how an overlay healed after failures: how
// many maintenance rounds it took, how much re-wiring happened, and the
// coverage-recovery trajectory (giant-component fraction per round).
type RecoveryReport struct {
	// Rounds counts maintenance rounds run; Repaired sums successful
	// re-joins across them.
	Rounds, Repaired int
	// Recovered reports whether the surviving peers re-converged to one
	// connected component within the round budget.
	Recovered bool
	// Coverage[i] is the giant-component fraction of live peers after
	// round i — the coverage-recovery curve.
	Coverage []float64
	// Elapsed is the wall-clock time-to-reconnect (or the time spent
	// before giving up).
	Elapsed time.Duration
}

// Heal drives the overlay back to a connected topology after failures:
// it runs Maintain rounds (prune dead links, re-join deficit peers by
// the configured paper rule) until every live peer sits in one connected
// component or maxRounds is exhausted, reporting time-to-reconnect and
// the coverage recovery per round.
func (o *Overlay) Heal(maxRounds int) RecoveryReport {
	start := time.Now()
	var rep RecoveryReport
	for r := 0; r < maxRounds; r++ {
		rep.Rounds++
		rep.Repaired += o.Maintain()
		frac := o.giantFraction()
		rep.Coverage = append(rep.Coverage, frac)
		if frac >= 1 {
			rep.Recovered = true
			break
		}
		// Degree repair alone cannot merge a partition whose sides are
		// both internally healthy (every degree >= M, nothing deficits).
		// Bridge one stranded peer into the giant component per round so
		// coverage cannot plateau below 1 while peers are reachable.
		if o.bridge() {
			rep.Repaired++
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// bridge joins one peer from outside the giant component through a
// member of it. Returns false when the overlay is already connected (or
// too small to bridge).
func (o *Overlay) bridge() bool {
	g, idx := o.Snapshot()
	if g.N() <= 1 {
		return false
	}
	giant := g.GiantComponent()
	if len(giant) == g.N() {
		return false
	}
	inGiant := make([]bool, g.N())
	for _, v := range giant {
		inGiant[v] = true
	}
	addrOf := make([]string, g.N())
	for a, id := range idx {
		addrOf[id] = a
	}
	target := addrOf[giant[0]]
	for id := 0; id < g.N(); id++ {
		if inGiant[id] {
			continue
		}
		joiner := o.Peer(addrOf[id])
		if joiner == nil || target == joiner.Addr() {
			continue
		}
		if _, err := joiner.Join(target, o.cfg.Strategy); err == nil {
			return true
		}
	}
	return false
}

// giantFraction is the fraction of live peers inside the snapshot's
// largest connected component (1 for an empty or single-peer overlay).
func (o *Overlay) giantFraction() float64 {
	g, _ := o.Snapshot()
	if g.N() <= 1 {
		return 1
	}
	return float64(len(g.GiantComponent())) / float64(g.N())
}

// Snapshot freezes the overlay topology into a CSR snapshot for analysis.
// Node IDs follow join order; the returned map translates address to node
// ID. Links are taken from each live peer's neighbor table; a link is
// included if either endpoint knows it (tolerating the brief asymmetry of
// in-flight connects).
func (o *Overlay) Snapshot() (*graph.Frozen, map[string]int) {
	o.mu.Lock()
	order := append([]string(nil), o.order...)
	peers := make(map[string]*Peer, len(o.peers))
	for a, p := range o.peers {
		peers[a] = p
	}
	o.mu.Unlock()

	id := make(map[string]int, len(order))
	for i, a := range order {
		id[a] = i
	}
	g := graph.New(len(order))
	type edge struct{ u, v int }
	seen := make(map[edge]bool)
	for _, a := range order {
		p := peers[a]
		if p == nil {
			continue
		}
		for _, nb := range p.Neighbors() {
			j, ok := id[nb.Addr]
			if !ok {
				continue // neighbor already departed
			}
			u, v := id[a], j
			if u > v {
				u, v = v, u
			}
			if u == v || seen[edge{u, v}] {
				continue
			}
			seen[edge{u, v}] = true
			// Snapshot errors cannot happen: ids are in range by
			// construction.
			if err := g.AddEdge(u, v); err != nil {
				panic(fmt.Sprintf("p2p: snapshot edge: %v", err))
			}
		}
	}
	return g.Freeze(), id
}

// DegreeHistogram returns the live overlay's degree histogram (from the
// snapshot graph).
func (o *Overlay) DegreeHistogram() []int {
	g, _ := o.Snapshot()
	return g.DegreeHistogram()
}

// SortedDegrees returns all live peer degrees ascending (diagnostic).
func (o *Overlay) SortedDegrees() []int {
	g, _ := o.Snapshot()
	seq := g.DegreeSequence()
	sort.Ints(seq)
	return seq
}
