package graph

import "testing"

// FuzzCSRBuilderEquivalence feeds arbitrary byte-derived edge streams —
// self-loops and parallel edges arise constantly at these tiny node
// counts — to the direct-to-CSR builders and to the mutable-Graph
// reference path, asserting byte-identical offsets/neighbors/sorted
// arrays for both the multigraph (CSRBuilder.Finalize vs Freeze) and
// simplified (SimplifyPairs vs Simplify+FreezePar) contracts. The
// simplified side runs once with each of the two small bytes as its
// worker count, which is also how many pieces the stream is cut into. `go test -fuzz FuzzCSRBuilder`
// explores further; the seed corpus runs in every ordinary test and race
// invocation.
func FuzzCSRBuilderEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 0}, uint8(1), uint8(1))
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 1, 0}, uint8(2), uint8(2))
	f.Add([]byte{9, 3, 4, 3, 4, 3, 4, 5, 5, 5, 5, 8, 0}, uint8(3), uint8(4))
	f.Add([]byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, chunkCount, workers uint8) {
		if len(data) < 1 {
			return
		}
		// First byte picks the node count (1..64 keeps collisions frequent);
		// each following byte pair is one edge.
		n := int(data[0])%64 + 1
		pairs := data[1:]
		stream := make([][2]int32, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			stream = append(stream, [2]int32{int32(pairs[i]) % int32(n), int32(pairs[i+1]) % int32(n)})
		}
		chunks := int(chunkCount)%8 + 1
		w := int(workers)%5 + 1

		g := graphFromStream(t, n, stream)
		wantMulti := g.FreezePar(1)
		arena := NewCSRArena()
		gotMulti := builderFromStream(n, stream, chunks, arena).Finalize(w, true)
		expectIdentical(t, "fuzz multigraph", wantMulti, gotMulti)

		wantLoops, wantEdges := g.Simplify()
		wantSimple := g.FreezePar(1)
		for _, sw := range []int{w, chunks} {
			gotSimple, loops, multi := SimplifyPairs(n, flatPairs(stream), sw, arena)
			if loops != wantLoops || multi != wantEdges {
				t.Fatalf("W=%d: deletions (%d,%d), want (%d,%d)", sw, loops, multi, wantLoops, wantEdges)
			}
			expectIdentical(t, "fuzz simplified", wantSimple, gotSimple)
		}
	})
}
