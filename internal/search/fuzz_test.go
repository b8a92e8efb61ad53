package search

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// FuzzFloodKernelsMatchReference drives every single-source flooding kernel
// against its reference on arbitrary multigraphs, built as
// FuzzFloodBatchMatchesFlood builds them (loops and parallel edges kept):
// Flood, NormalizedFlood and ProbabilisticFlood against the historical
// implementations, FloodDelivery against BFS depth plus Flood's messages,
// and NormalizedFloodLoad's charged total against NF's message count. One
// scratch serves every call, and each Result is read before the next call
// because results alias it.
func FuzzFloodKernelsMatchReference(f *testing.F) {
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 5, 5, 7, 8, 7, 8, 1, 2}, uint8(1), uint8(8), uint8(4), uint8(1), uint8(128), uint64(1))
	f.Add(uint8(1), []byte{}, uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint64(2))
	f.Add(uint8(40), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 20, 21, 3, 3, 0, 1}, uint8(0), uint8(6), uint8(30), uint8(2), uint8(255), uint64(3))
	f.Fuzz(func(t *testing.T, nodes uint8, edges []byte, src, target, ttl, kMin, pByte uint8, seed uint64) {
		n := int(nodes)%64 + 1
		g := graph.New(n)
		for i := 0; i+1 < len(edges); i += 2 {
			if err := g.AddEdge(int(edges[i])%n, int(edges[i+1])%n); err != nil {
				t.Fatal(err)
			}
		}
		fz := g.Freeze()
		s, tgt, maxTTL, k := int(src)%n, int(target)%n, int(ttl)%40, int(kMin)%4+1
		p := float64(pByte) / 255
		sc := NewScratch(0)

		fl, err := sc.Flood(fz, s, maxTTL)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "flood", referenceFlood(g, s, maxTTL), fl)
		want := Delivery{Found: true}
		if tgt != s {
			if d := int(fz.BFS(s)[tgt]); d < 0 || d > maxTTL {
				want = Delivery{Found: false, Time: maxTTL, Messages: fl.MessagesAt(maxTTL)}
			} else {
				want = Delivery{Found: true, Time: d, Messages: fl.MessagesAt(d)}
			}
		}
		got, err := sc.FloodDelivery(fz, s, tgt, maxTTL)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("FloodDelivery(%d -> %d, ttl %d) = %+v, want %+v", s, tgt, maxTTL, got, want)
		}

		nf, err := sc.NormalizedFlood(fz, s, maxTTL, k, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "nf", referenceNormalizedFlood(g, s, maxTTL, k, xrand.New(seed)), nf)
		nfMsgs := int64(nf.Messages[maxTTL])
		load := NewLoad(n)
		if err := sc.NormalizedFloodLoad(fz, s, maxTTL, k, xrand.New(seed), load); err != nil {
			t.Fatal(err)
		}
		if load.Total() != nfMsgs {
			t.Fatalf("NormalizedFloodLoad charged %d transmissions, NF sent %d", load.Total(), nfMsgs)
		}

		pf, err := sc.ProbabilisticFlood(fz, s, maxTTL, p, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceProbabilisticFlood(fz, s, maxTTL, p, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "pf", ref, pf)
	})
}
