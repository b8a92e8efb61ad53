package coord

import (
	"reflect"
	"testing"

	"scalefree/internal/p2p"
)

// FuzzDecodeWire feeds arbitrary bytes to decodeWire as the Data of a
// control envelope — what any peer that can reach a coordinator or worker
// may send. It must never panic, and every control message it decodes must
// survive sendWire's encoding: re-encoded and decoded again, it is the same
// wireMsg (an empty fingerprint travels as none). Seeds in
// testdata/fuzz/FuzzDecodeWire are one claim, lease, wait, hb, ack,
// complete, fail and shutdown each as sendWire encodes them, a lease
// carrying its credit window (lease_win), truncated and bit-flipped copies
// of each, and a result dressed as a control message, which must not
// decode: a result travels only as raw Data.
func FuzzDecodeWire(f *testing.F) {
	net := p2p.NewInMemoryNetwork()
	inbox := make(chan p2p.Envelope, 1)
	if err := net.Register("coord", inbox); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeWire(p2p.Envelope{From: "w", To: "coord", Msg: p2p.Message{Kind: p2p.KindCoord, Data: data}})
		if !ok {
			return
		}
		if m.Type == mtResult {
			t.Fatalf("control bytes %q decoded as a result", data)
		}
		if len(m.Fingerprint) == 0 {
			m.Fingerprint = nil
		}
		if err := sendWire(net, "w", "coord", m); err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		back, ok := decodeWire(<-inbox)
		if !ok || !reflect.DeepEqual(back, m) {
			t.Fatalf("control message does not survive a round trip:\n got %+v\nwant %+v (from %q)", back, m, data)
		}
	})
}
