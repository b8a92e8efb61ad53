package p2p

import (
	"fmt"
	"strconv"
	"time"
)

// This file implements the client side of overlay membership: discovery,
// connection negotiation, and the three join strategies. Everything here
// uses only information obtained through messages — there is no global
// state, which is the operational form of the paper's Table II locality
// claims.

// Discover floods a peer-discovery query ttl hops starting at `via`
// (a bootstrap address, or one of the peer's own neighbors) and returns
// the peers heard back within the configured window, deduplicated, sorted
// by address. This is the live form of DAPA's substrate horizon query.
func (p *Peer) Discover(via string, ttl int) ([]PeerInfo, error) {
	if ttl < 1 {
		return nil, fmt.Errorf("p2p: discover TTL %d must be >= 1", ttl)
	}
	id := p.newID()
	ch, cancel := p.await(id)
	defer cancel()
	p.mu.Lock()
	p.markSeen(p.seen, id) // never answer or re-forward our own flood
	p.mu.Unlock()
	p.send(via, Message{Kind: KindDiscover, ID: id, Origin: p.cfg.Addr, TTL: ttl})

	byAddr := map[string]PeerInfo{}
	deadline := time.NewTimer(p.cfg.DiscoverWindow)
	defer deadline.Stop()
	for {
		select {
		case msg := <-ch:
			for _, pi := range msg.Peers {
				if pi.Addr != p.cfg.Addr {
					byAddr[pi.Addr] = pi
				}
			}
		case <-deadline.C:
			out := make([]PeerInfo, 0, len(byAddr))
			for _, pi := range byAddr {
				out = append(out, pi)
			}
			sortPeers(out)
			return out, nil
		case <-p.stop:
			return nil, ErrPeerClosed
		}
	}
}

func sortPeers(ps []PeerInfo) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Addr < ps[j-1].Addr; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Connect negotiates one overlay link with the target. It respects the
// local hard cutoff, waits one window for the verdict, and returns
// ErrSaturated if the target declined.
func (p *Peer) Connect(target string) error {
	p.mu.Lock()
	if _, dup := p.neighbors[target]; dup || target == p.cfg.Addr {
		p.mu.Unlock()
		return nil // already linked (or self); not an error
	}
	if p.cfg.KC != NoCutoff && len(p.neighbors) >= p.cfg.KC {
		p.mu.Unlock()
		return fmt.Errorf("%w: local degree at kc=%d", ErrSaturated, p.cfg.KC)
	}
	degree := len(p.neighbors)
	p.mu.Unlock()

	id := p.newID()
	ch, cancel := p.await(id)
	defer cancel()
	p.send(target, Message{Kind: KindConnect, ID: id, Degree: degree})
	deadline := time.NewTimer(p.cfg.DiscoverWindow)
	defer deadline.Stop()
	select {
	case msg := <-ch:
		if !msg.Accept {
			return fmt.Errorf("%w: %s", ErrSaturated, target)
		}
		p.mu.Lock()
		p.neighbors[target] = msg.Degree
		p.mu.Unlock()
		return nil
	case <-deadline.C:
		return fmt.Errorf("p2p: connect to %s timed out", target)
	case <-p.stop:
		return ErrPeerClosed
	}
}

// Disconnect drops the link to target on both sides.
func (p *Peer) Disconnect(target string) {
	p.mu.Lock()
	_, ok := p.neighbors[target]
	delete(p.neighbors, target)
	p.mu.Unlock()
	if ok {
		p.send(target, Message{Kind: KindDisconnect})
	}
}

// Join attaches this peer to the overlay reachable through the bootstrap
// address using the given strategy, trying to establish M links. It
// returns the number of links actually made; fewer than M is not an error
// (the paper's DAPA admits nodes that find at least one peer), but zero
// links returns ErrJoinFailed.
func (p *Peer) Join(bootstrap string, strategy JoinStrategy) (int, error) {
	switch strategy {
	case JoinDAPA:
		return p.joinDAPA(bootstrap)
	case JoinHAPA:
		return p.joinHAPA(bootstrap)
	case JoinRandom:
		return p.joinRandom(bootstrap)
	default:
		return 0, fmt.Errorf("%w: unknown join strategy %d", ErrBadConfig, int(strategy))
	}
}

// joinDAPA is the live Discover-and-Attempt join (Appendix D): flood a
// discovery query τ_sub hops from the bootstrap, then attach
// preferentially by advertised degree, re-drawing when a candidate is
// saturated. If the horizon holds at most M peers, connect to all of them.
func (p *Peer) joinDAPA(bootstrap string) (int, error) {
	peers, err := p.Discover(bootstrap, p.cfg.TauSub)
	if err != nil {
		return 0, err
	}
	if len(peers) == 0 {
		// The bootstrap itself is in our horizon even if it forwarded to
		// nobody; fall back to connecting to it directly.
		peers = []PeerInfo{{Addr: bootstrap, Degree: 1}}
	}
	if len(peers) <= p.cfg.M {
		made := 0
		for _, pi := range peers {
			if p.Connect(pi.Addr) == nil {
				made++
			}
		}
		return joined(made)
	}
	eligible := append([]PeerInfo(nil), peers...)
	made := 0
	for made < p.cfg.M && len(eligible) > 0 {
		idx := p.chooseByDegree(eligible)
		cand := eligible[idx]
		eligible = append(eligible[:idx], eligible[idx+1:]...)
		if p.Connect(cand.Addr) == nil {
			made++
		}
	}
	return joined(made)
}

// chooseByDegree draws an index proportionally to advertised degree
// (degree 0 counts as 1 so newly joined peers remain reachable).
func (p *Peer) chooseByDegree(peers []PeerInfo) int {
	weights := make([]float64, len(peers))
	for i, pi := range peers {
		w := float64(pi.Degree)
		if w < 1 {
			w = 1
		}
		weights[i] = w
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := p.rng.Choose(weights)
	if idx < 0 {
		return 0
	}
	return idx
}

// hapaJoinHopBudget bounds the live hop walk.
const hapaJoinHopBudget = 512

// joinHAPA is the live Hop-and-Attempt join (Appendix C): start at the
// bootstrap, attempt a degree-proportional connection at each stop, and
// hop along a random link of the current peer. The paper's acceptance
// probability k/k_total needs the global total degree, which no peer
// knows; the live protocol normalizes by the largest degree seen so far on
// the walk (a constant factor, which leaves the relative preference —
// and hence the attachment distribution — unchanged).
func (p *Peer) joinHAPA(bootstrap string) (int, error) {
	pos := bootstrap
	made := 0
	maxSeen := 1
	for hops := 0; hops < hapaJoinHopBudget && made < p.cfg.M; hops++ {
		info, next, err := p.probe(pos)
		if err != nil {
			// Walk broke (peer left): restart from the bootstrap.
			pos = bootstrap
			continue
		}
		if info.Degree > maxSeen {
			maxSeen = info.Degree
		}
		accept := func() bool {
			deg := info.Degree
			if deg < 1 {
				deg = 1
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.rng.Float64() < float64(deg)/float64(maxSeen)
		}()
		if accept && p.Connect(pos) == nil {
			made++
		}
		if next == "" {
			pos = bootstrap
		} else {
			pos = next
		}
	}
	return joined(made)
}

// probe asks addr for its degree and one random neighbor (the HAPA hop).
func (p *Peer) probe(addr string) (info PeerInfo, next string, err error) {
	id := p.newID()
	ch, cancel := p.await(id)
	defer cancel()
	p.send(addr, Message{Kind: KindNeighborReq, ID: id})
	deadline := time.NewTimer(p.cfg.DiscoverWindow)
	defer deadline.Stop()
	select {
	case msg := <-ch:
		info = PeerInfo{Addr: addr, Degree: msg.Degree}
		if len(msg.Peers) > 0 {
			next = msg.Peers[0].Addr
		}
		return info, next, nil
	case <-deadline.C:
		return PeerInfo{}, "", fmt.Errorf("p2p: probe of %s timed out", addr)
	case <-p.stop:
		return PeerInfo{}, "", ErrPeerClosed
	}
}

// PruneDead probes every neighbor with a ping and drops the ones that do
// not answer within the reply window — the liveness sweep behind overlay
// maintenance (crashed peers never send Disconnect). It returns the number
// of links removed. It returns as soon as every neighbor has answered
// (all-alive sweeps don't pay the full window) and aborts promptly on
// peer shutdown.
func (p *Peer) PruneDead() int {
	removed := 0
	for _, a := range p.pingNeighbors() {
		if p.forgetNeighbor(a) {
			removed++
		}
	}
	return removed
}

// pingNeighbors is the liveness probe behind PruneDead: it pings every
// current neighbor and returns the addresses that did not answer within
// the reply window.
// All probes share one reply channel, so the wait ends the moment the
// last pong arrives; a closing peer aborts the wait and reports nobody
// dead (shutdown is not evidence about the neighbors).
func (p *Peer) pingNeighbors() []string {
	p.mu.Lock()
	addrs := make([]string, 0, len(p.neighbors))
	for a := range p.neighbors {
		addrs = append(addrs, a)
	}
	p.mu.Unlock()
	if len(addrs) == 0 {
		return nil
	}

	// One shared channel under every probe ID; sized past the probe count
	// so even duplicated pongs (a FaultyNetwork can inject those) never
	// force route() to drop a reply.
	ch := make(chan Message, 2*len(addrs)+4)
	byID := make(map[string]string, len(addrs))
	p.mu.Lock()
	for _, a := range addrs {
		id := p.cfg.Addr + "/" + strconv.FormatUint(p.rng.Uint64(), 36)
		byID[id] = a
		p.pending[id] = ch
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		for id := range byID {
			delete(p.pending, id)
		}
		p.mu.Unlock()
	}()
	for id, a := range byID {
		p.send(a, Message{Kind: KindPing, ID: id})
	}

	alive := make(map[string]bool, len(addrs))
	deadline := time.NewTimer(p.cfg.DiscoverWindow)
	defer deadline.Stop()
collect:
	for len(alive) < len(addrs) {
		select {
		case msg := <-ch:
			if a, ok := byID[msg.ID]; ok {
				alive[a] = true
			}
		case <-deadline.C:
			break collect
		case <-p.stop:
			return nil
		}
	}
	var dead []string
	for _, a := range addrs {
		if !alive[a] {
			dead = append(dead, a)
		}
	}
	return dead
}

// joinRandom connects to M uniformly random peers from the discovery
// horizon — the naive baseline strategy.
func (p *Peer) joinRandom(bootstrap string) (int, error) {
	peers, err := p.Discover(bootstrap, p.cfg.TauSub)
	if err != nil {
		return 0, err
	}
	if len(peers) == 0 {
		peers = []PeerInfo{{Addr: bootstrap}}
	}
	p.mu.Lock()
	p.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	p.mu.Unlock()
	made := 0
	for _, pi := range peers {
		if made >= p.cfg.M {
			break
		}
		if p.Connect(pi.Addr) == nil {
			made++
		}
	}
	return joined(made)
}

func joined(made int) (int, error) {
	if made == 0 {
		return 0, ErrJoinFailed
	}
	return made, nil
}
