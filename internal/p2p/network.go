package p2p

import (
	"bytes"
	"fmt"
	"sync"
)

// Network abstracts message delivery between addresses. Implementations
// must be safe for concurrent use. Send is asynchronous and best-effort:
// the protocol above it retries what it cannot afford to lose.
type Network interface {
	// Register binds an address to an inbox. Delivery to the address
	// pushes envelopes into the channel, dropping when full.
	Register(addr string, inbox chan<- Envelope) error
	// Unregister removes the address; subsequent sends fail.
	Unregister(addr string)
	// Send routes one envelope. It returns ErrUnknownPeer for
	// unregistered destinations and ErrInboxOverrun when the inbox is
	// full. Send keeps no reference to env.Msg.Data once it returns: the
	// caller may overwrite or reuse the buffer at once, and what the
	// receiver gets is its own.
	Send(env Envelope) error
}

// InMemoryNetwork delivers envelopes between goroutines of one process via
// channels: the transport of the coord tests and of in-process fleets.
type InMemoryNetwork struct {
	mu     sync.RWMutex
	inbox  map[string]chan<- Envelope
	closed bool
}

var _ Network = (*InMemoryNetwork)(nil)

// NewInMemoryNetwork returns an empty in-process network.
func NewInMemoryNetwork() *InMemoryNetwork {
	return &InMemoryNetwork{inbox: make(map[string]chan<- Envelope)}
}

// Register implements Network.
func (n *InMemoryNetwork) Register(addr string, inbox chan<- Envelope) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrPeerClosed
	}
	if _, ok := n.inbox[addr]; ok {
		return fmt.Errorf("%w: %s", ErrDupAddress, addr)
	}
	n.inbox[addr] = inbox
	return nil
}

// Unregister implements Network. It is idempotent: unregistering an
// unknown address, an already-unregistered address, or any address on a
// closed network is a no-op (mirroring the TCP transport's hardening) —
// teardown paths may overlap and must all be safe.
func (n *InMemoryNetwork) Unregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inbox == nil {
		return
	}
	delete(n.inbox, addr)
}

// Send implements Network. The inbox gets a copy of Msg.Data, as a
// receiver on the other end of a socket would.
func (n *InMemoryNetwork) Send(env Envelope) error {
	n.mu.RLock()
	ch, ok := n.inbox[env.To]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, env.To)
	}
	env.Msg.Data = bytes.Clone(env.Msg.Data)
	select {
	case ch <- env:
		return nil
	default:
		return fmt.Errorf("%w: to %s", ErrInboxOverrun, env.To)
	}
}

// Close unregisters everything; subsequent Register calls fail.
func (n *InMemoryNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	n.inbox = make(map[string]chan<- Envelope)
}
