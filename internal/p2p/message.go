package p2p

// Wire protocol. One flat Message struct with a Kind discriminator avoids
// interface marshaling machinery. On the TCP transport an envelope is one
// length-prefixed frame: every field but Data as a small JSON header (unused
// fields omitted), then Data as raw bytes — see tcp.go for the layout.

// Kind discriminates protocol messages.
type Kind string

// KindCoord carries one coordinator/worker protocol message
// (internal/coord): opaque bytes in Data, plus ID and Key as that protocol
// sees fit. The transports never look inside it.
const KindCoord Kind = "coord"

// Message is the single wire message.
type Message struct {
	Kind Kind `json:"kind"`
	// ID and Key are free for the embedded protocol: internal/coord marks a
	// result with ID "result" and names its spec in Key.
	ID  string `json:"id,omitempty"`
	Key string `json:"key,omitempty"`
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
