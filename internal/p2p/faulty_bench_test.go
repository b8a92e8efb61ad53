package p2p

import (
	"testing"
)

// The fault-layer overhead benchmarks back the acceptance claim that a
// zero-fault FaultyNetwork is free: BenchmarkFaultySendZero must sit
// within noise of BenchmarkInMemorySend (the wrapper's fast path is one
// config check and one atomic load), while BenchmarkFaultySendLossy
// prices the full draw path.

func benchSend(b *testing.B, netw Network) {
	b.Helper()
	inbox := make(chan Envelope, 256)
	if err := netw.Register("sink", inbox); err != nil {
		b.Fatal(err)
	}
	env := Envelope{From: "src", To: "sink", Msg: Message{Kind: KindCoord}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := netw.Send(env); err != nil {
			b.Fatal(err)
		}
		select {
		case <-inbox:
		default: // dropped in flight — nothing to drain
		}
	}
}

func BenchmarkInMemorySend(b *testing.B) {
	benchSend(b, NewInMemoryNetwork())
}

func BenchmarkFaultySendZero(b *testing.B) {
	benchSend(b, NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{}))
}

func BenchmarkFaultySendLossy(b *testing.B) {
	benchSend(b, NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{Seed: 1, Drop: 0.05}))
}
