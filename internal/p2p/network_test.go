package p2p

import (
	"errors"
	"testing"
	"time"
)

// TestInMemoryUnregisterIdempotent pins the Unregister hardening: double
// unregisters, unknown addresses, and unregisters on a closed network
// are all silent no-ops, and the address is immediately reusable.
func TestInMemoryUnregisterIdempotent(t *testing.T) {
	t.Parallel()
	n := NewInMemoryNetwork()
	inbox := make(chan Envelope, 1)
	if err := n.Register("a", inbox); err != nil {
		t.Fatal(err)
	}
	n.Unregister("a")
	n.Unregister("a")     // double unregister
	n.Unregister("ghost") // never registered
	if err := n.Send(Envelope{To: "a"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send after unregister: %v", err)
	}
	// The slot is free again.
	if err := n.Register("a", make(chan Envelope, 1)); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

func TestInMemoryUnregisterAfterClose(t *testing.T) {
	t.Parallel()
	n := NewInMemoryNetwork()
	if err := n.Register("a", make(chan Envelope, 1)); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Unregister("a") // must not panic or resurrect anything
	n.Unregister("a")
	if err := n.Register("b", make(chan Envelope, 1)); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("register on closed network: %v", err)
	}
	if err := n.Send(Envelope{To: "a"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send on closed network: %v", err)
	}
}

func TestInMemoryDoubleClose(t *testing.T) {
	t.Parallel()
	n := NewInMemoryNetwork()
	n.Close()
	n.Close() // idempotent
}

func TestInMemoryNetworkErrors(t *testing.T) {
	t.Parallel()
	n := NewInMemoryNetwork()
	err := n.Send(Envelope{From: "x", To: "ghost"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
	inbox := make(chan Envelope, 1)
	if err := n.Register("a", inbox); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Envelope{To: "a"}); err != nil {
		t.Fatal(err)
	}
	// The inbox is full: the next send fails at once instead of blocking
	// the sender until the receiver drains.
	done := make(chan error, 1)
	go func() { done <- n.Send(Envelope{To: "a"}) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInboxOverrun) {
			t.Fatalf("send to a full inbox = %v, want ErrInboxOverrun", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send to a full inbox blocked")
	}
	n.Unregister("a")
	if err := n.Send(Envelope{To: "a"}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("after unregister err = %v", err)
	}
	n.Close()
	if err := n.Register("b", inbox); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("register after close err = %v", err)
	}
}

// TestDuplicateAddress pins that an address has one owner: a second
// Register of it fails with ErrDupAddress and leaves the first inbox bound.
func TestDuplicateAddress(t *testing.T) {
	t.Parallel()
	n := NewInMemoryNetwork()
	first := make(chan Envelope, 1)
	if err := n.Register("a", first); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", make(chan Envelope, 1)); !errors.Is(err, ErrDupAddress) {
		t.Fatalf("err = %v, want ErrDupAddress", err)
	}
	if err := n.Send(Envelope{To: "a", Msg: Message{Kind: KindCoord}}); err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatal("the refused registration took the address over")
	}
}
