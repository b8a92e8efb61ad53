package p2p

// Wire protocol. One flat Message struct with a Kind discriminator avoids
// interface marshaling machinery. On the TCP transport an envelope is one
// length-prefixed frame: every field but Data as a small JSON header (unused
// fields omitted), then Data as raw bytes — see tcp.go for the layout.

// Kind discriminates protocol messages.
type Kind string

// Protocol message kinds.
const (
	// KindDiscover floods a peer-discovery query TTL hops through the
	// overlay (the DAPA horizon query, Appendix D).
	KindDiscover Kind = "discover"
	// KindDiscoverReply returns a discovered peer's info directly to the
	// discovery origin.
	KindDiscoverReply Kind = "discover-reply"
	// KindConnect requests a new overlay link.
	KindConnect Kind = "connect"
	// KindConnectReply accepts or rejects a link request.
	KindConnectReply Kind = "connect-reply"
	// KindDisconnect tears down a link (graceful leave).
	KindDisconnect Kind = "disconnect"
	// KindQuery carries a content search (FL, NF, or RW per Alg).
	KindQuery Kind = "query"
	// KindQueryHit reports a local match directly to the query origin.
	KindQueryHit Kind = "query-hit"
	// KindNeighborReq asks a peer for one uniformly random neighbor
	// (the HAPA hop primitive, RANDOM_LINK in Appendix C).
	KindNeighborReq Kind = "neighbor-req"
	// KindNeighborReply answers KindNeighborReq with the sampled
	// neighbor and the replying peer's own info.
	KindNeighborReply Kind = "neighbor-reply"
	// KindPeersReq asks a peer for its full neighbor list (peer
	// exchange, the primitive topology crawlers use).
	KindPeersReq Kind = "peers-req"
	// KindPeersReply answers KindPeersReq.
	KindPeersReply Kind = "peers-reply"
	// KindPing and KindPong probe liveness and refresh degree caches.
	KindPing Kind = "ping"
	KindPong Kind = "pong"
	// KindCoord carries one coordinator/worker protocol message
	// (internal/coord): opaque bytes in Data, plus ID and Key as that
	// protocol sees fit. The experiment orchestration protocol rides the
	// same transports — and the same fault injection — as the overlay
	// protocol without this package knowing its message set.
	KindCoord Kind = "coord"
)

// Alg names the live search algorithms carried in queries.
type Alg string

// Live search algorithms (§V-A).
const (
	AlgFlood Alg = "fl"
	AlgNF    Alg = "nf"
	AlgRW    Alg = "rw"
)

// Message is the single wire message. Fields are populated per Kind; see
// the Kind constants for semantics.
type Message struct {
	Kind Kind `json:"kind"`
	// ID identifies a request/flood instance (GUID for duplicate
	// suppression).
	ID string `json:"id,omitempty"`
	// Origin is the address replies should be sent to.
	Origin string `json:"origin,omitempty"`
	// TTL is the remaining hop budget; Hops counts hops taken so far.
	TTL  int `json:"ttl,omitempty"`
	Hops int `json:"hops,omitempty"`
	// Key is the content key being searched.
	Key string `json:"key,omitempty"`
	// Alg selects the live search algorithm for KindQuery.
	Alg Alg `json:"alg,omitempty"`
	// KMin is the NF fan-out carried with the query.
	KMin int `json:"kmin,omitempty"`
	// Peers carries discovery results / hit reporters.
	Peers []PeerInfo `json:"peers,omitempty"`
	// Degree advertises the sender's degree (connect negotiation,
	// neighbor replies).
	Degree int `json:"degree,omitempty"`
	// Accept is the connect verdict.
	Accept bool `json:"accept,omitempty"`
	// Data is an opaque payload for embedded protocols (KindCoord); TCP
	// carries it outside the JSON header, raw, up to MaxData bytes.
	Data []byte `json:"data,omitempty"`
}

// Envelope is a routed message.
type Envelope struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Msg  Message `json:"msg"`
}
