// Package p2p is the transport coord runs on: the coordinator/worker
// protocol of internal/coord travels as KindCoord envelopes over a Network.
//
// Three implementations share that interface: InMemoryNetwork delivers
// between goroutines of one process through channels (the coord tests and
// in-process fleets), TCPNetwork carries one length-prefixed frame per
// envelope between processes (cmd/experiments -mode coord and -mode
// worker), and FaultyNetwork wraps either with a seeded schedule of drops,
// duplicates, delays, reorders and partitions (the coord chaos tests).
// Delivery is asynchronous and best-effort; the protocol above it
// retries and deduplicates.
//
// Who owns Data: Send keeps no reference to an envelope's Msg.Data after it
// returns, so a sender may reuse its buffer for the next envelope at once.
// TCPNetwork writes the frame before Send returns, InMemoryNetwork delivers
// a copy, and FaultyNetwork copies what it holds back (delayed and
// reordered envelopes). A delivered Msg.Data is the receiver's; a receiver
// done with one from a TCPNetwork may hand it back with Recycle, and the
// network reads a later frame into it.
package p2p

import "errors"

// Errors returned by the transports.
var (
	ErrPeerClosed   = errors.New("p2p: peer is shut down")
	ErrUnknownPeer  = errors.New("p2p: unknown peer address")
	ErrDupAddress   = errors.New("p2p: address already registered")
	ErrInboxOverrun = errors.New("p2p: inbox overrun, message dropped")
)
