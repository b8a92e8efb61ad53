package graph

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the parser against arbitrary input: it must
// never panic, and any successfully parsed graph must round-trip through
// WriteEdgeList with every pair's edge multiplicity intact.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# nodes 3\n0 1\n1 2\n")
	f.Add("0 0\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Add("5 5\n5 5\n")
	f.Add("0 1 2\n")
	f.Add("-1 3\n")
	f.Add("# nodes -5\n")
	f.Add("999999 0\n")
	f.Add("0\t1\n")
	f.Add("0 1\n2147483648 0\n")
	f.Add("# nodes 2147483647\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Guard against absurd node counts blowing up memory: the parser
		// allocates per node, so skip inputs naming a node count it
		// accepts but the fuzz budget cannot hold. IDs and counts at or
		// past math.MaxInt32 are refused before anything grows, so those
		// run.
		for _, tok := range strings.Fields(input) {
			if n, err := strconv.Atoi(tok); err == nil && n > 9_999_999 && n < 1<<31-1 {
				t.Skip("node count too large for fuzz budget")
			}
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if g.TotalDegree() != 2*g.M() {
			t.Fatalf("invariant broken: total degree %d != 2*edges %d", g.TotalDegree(), g.M())
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write after parse: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: N %d->%d M %d->%d", g.N(), g2.N(), g.M(), g2.M())
		}
		// Every edge copy survives: each node's neighbors (self included)
		// keep their multiplicity. Walking rows keeps this O(E) on the
		// sparse million-node graphs a seven-digit ID can produce.
		for u := 0; u < g.N(); u++ {
			if g2.Degree(u) != g.Degree(u) {
				t.Fatalf("round trip changed Degree(%d): %d -> %d", u, g.Degree(u), g2.Degree(u))
			}
			for _, v := range g.Neighbors(u) {
				if a, b := g.EdgeMultiplicity(u, int(v)), g2.EdgeMultiplicity(u, int(v)); a != b {
					t.Fatalf("round trip changed EdgeMultiplicity(%d,%d): %d -> %d", u, v, a, b)
				}
			}
		}
	})
}
