package graph

import (
	"bytes"
	"strings"
	"testing"

	"scalefree/internal/xrand"
)

func TestEdgeListRoundTrip(t *testing.T) {
	t.Parallel()
	g := New(5)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 3, 3) // self-loop
	mustAdd(t, g, 3, 4)
	mustAdd(t, g, 3, 4) // parallel edge

	var buf bytes.Buffer
	if err := g.Freeze().WriteEdgeList(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip: N=%d M=%d, want N=%d M=%d", got.N(), got.M(), g.N(), g.M())
	}
	if got.EdgeMultiplicity(3, 4) != 2 {
		t.Fatalf("parallel edge lost: mult=%d", got.EdgeMultiplicity(3, 4))
	}
	if got.EdgeMultiplicity(3, 3) != 1 {
		t.Fatalf("self-loop lost: mult=%d", got.EdgeMultiplicity(3, 3))
	}
	if got.Degree(3) != g.Degree(3) {
		t.Fatalf("degree(3): got %d want %d", got.Degree(3), g.Degree(3))
	}
}

// TestWritersDeterministic pins the writers' edge order: ascending (u,v),
// parallel copies adjacent, self-loops as "u u" — and therefore the same
// bytes on every write, whatever order the edges were inserted in.
func TestWritersDeterministic(t *testing.T) {
	t.Parallel()
	edges := [][2]int{{3, 4}, {1, 0}, {3, 3}, {2, 1}, {4, 3}, {0, 0}, {4, 0}, {3, 3}}
	build := func(order []int) *Graph {
		g := New(5)
		for _, i := range order {
			mustAdd(t, g, edges[i][0], edges[i][1])
		}
		return g
	}
	write := func(g *Graph) (edgeList, dot string) {
		var a, b bytes.Buffer
		f := g.Freeze()
		if err := f.WriteEdgeList(&a); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteDOT(&b, "g"); err != nil {
			t.Fatal(err)
		}
		return a.String(), b.String()
	}
	g := build([]int{0, 1, 2, 3, 4, 5, 6, 7})
	el, dot := write(g)
	const wantEL = "# nodes 5\n0 0\n0 1\n0 4\n1 2\n3 3\n3 3\n3 4\n3 4\n"
	if el != wantEL {
		t.Fatalf("edge list:\n%s\nwant:\n%s", el, wantEL)
	}
	const wantDOTEdges = "  0 -- 0;\n  0 -- 1;\n  0 -- 4;\n  1 -- 2;\n  3 -- 3;\n  3 -- 3;\n  3 -- 4;\n  3 -- 4;\n}\n"
	if !strings.HasSuffix(dot, wantDOTEdges) {
		t.Fatalf("DOT edges out of order:\n%s", dot)
	}
	for i := 0; i < 20; i++ { // map iteration would differ within a few tries
		if el2, dot2 := write(g); el2 != el || dot2 != dot {
			t.Fatalf("write %d of the same graph produced different bytes", i+2)
		}
	}
	if el2, dot2 := write(build([]int{7, 5, 6, 2, 4, 0, 3, 1})); el2 != el || dot2 != dot {
		t.Fatal("insertion order leaked into the written edge order")
	}
}

func TestEdgeListRoundTripRandomProperty(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 20; seed++ {
		rng := xrand.New(seed)
		n := rng.IntRange(1, 60)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			if err := g.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := g.Freeze().WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("seed %d: N/M mismatch", seed)
		}
		for u := 0; u < n; u++ {
			if got.Degree(u) != g.Degree(u) {
				t.Fatalf("seed %d: degree(%d) %d != %d", seed, u, got.Degree(u), g.Degree(u))
			}
			for v := u; v < n; v++ {
				if got.EdgeMultiplicity(u, v) != rowMultiplicity(g, u, v) {
					t.Fatalf("seed %d: mult(%d,%d) mismatch", seed, u, v)
				}
			}
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	t.Parallel()
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestReadEdgeListHeaderIsolatedNodes(t *testing.T) {
	t.Parallel()
	g, err := ReadEdgeList(strings.NewReader("# nodes 10\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("N=%d, want 10 (header should pre-size)", g.N())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	t.Parallel()
	in := "# a comment\n\n0 1\n# another\n1 2\n\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M=%d", g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"three fields":  "0 1 2\n",
		"non-numeric":   "a b\n",
		"negative node": "-1 0\n",
		"bad header":    "# nodes x\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		}
	}
}

// TestReadEdgeListRejectsOutOfRangeIDs pins the int32 bound: a node ID or
// header count at or past math.MaxInt32 is a line-numbered error, returned
// before the parser grows a single row for it.
func TestReadEdgeListRejectsOutOfRangeIDs(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ in, want string }{
		{"0 1\n2147483648 0\n", "line 2: node ID 2147483648 out of range"},
		{"0 1\n1 2147483647\n", "line 2: node ID 2147483647 out of range"},
		{"# nodes 2147483648\n0 1\n", "line 1: node count 2147483648 out of range"},
		{"# nodes 2147483647\n", "line 1: node count 2147483647 out of range"},
	} {
		_, err := ReadEdgeList(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadEdgeList(%q) = %v, want an error containing %q", tc.in, err, tc.want)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	t.Parallel()
	g := New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	f := g.Freeze()
	var buf bytes.Buffer
	if err := f.WriteDOT(&buf, "tri"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "tri" {`, "--", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Node 3 is isolated and must be omitted; nodes 0-2 appear.
	if strings.Contains(out, "  3 [") {
		t.Error("isolated node should be skipped")
	}
	if edges := strings.Count(out, "--"); edges != 3 {
		t.Errorf("DOT has %d edges, want 3", edges)
	}
	// Default name fallback.
	buf.Reset()
	if err := f.WriteDOT(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `graph "overlay" {`) {
		t.Error("default graph name missing")
	}
}
