package search

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// star builds a star graph: node 0 is the hub with n-1 leaves.
func star(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 1; v < n; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// pathN builds a path graph 0-1-...-(n-1).
func pathN(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestFloodValidation(t *testing.T) {
	t.Parallel()
	g := star(t, 4)
	if _, err := new(Scratch).Flood(g.Freeze(), -1, 2); err == nil {
		t.Error("negative source should fail")
	}
	if _, err := new(Scratch).Flood(g.Freeze(), 9, 2); err == nil {
		t.Error("out-of-range source should fail")
	}
	if _, err := new(Scratch).Flood(g.Freeze(), 0, -1); err == nil {
		t.Error("negative TTL should fail")
	}
}

func TestFloodStar(t *testing.T) {
	t.Parallel()
	g := star(t, 6)
	// From the hub: one hop reaches everything.
	res, err := new(Scratch).Flood(g.Freeze(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0] != 1 {
		t.Fatalf("Hits[0] = %d", res.Hits[0])
	}
	if res.Hits[1] != 6 || res.Hits[3] != 6 {
		t.Fatalf("hub flood hits %v", res.Hits)
	}
	// Hub sends 5 messages at depth 0; leaves have degree 1, so after
	// excluding the sender they send nothing.
	if res.Messages[1] != 5 {
		t.Fatalf("Messages[1] = %d, want 5", res.Messages[1])
	}
	if res.Messages[3] != 5 {
		t.Fatalf("Messages[3] = %d, want 5 (leaves forward nothing)", res.Messages[3])
	}

	// From a leaf: τ=1 reaches the hub, τ=2 reaches everything.
	res, err = new(Scratch).Flood(g.Freeze(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[1] != 2 || res.Hits[2] != 6 {
		t.Fatalf("leaf flood hits %v", res.Hits)
	}
	// Leaf sends 1; hub forwards deg-1 = 4.
	if res.Messages[1] != 1 || res.Messages[2] != 5 {
		t.Fatalf("leaf flood messages %v", res.Messages)
	}
}

func TestFloodPath(t *testing.T) {
	t.Parallel()
	g := pathN(t, 10)
	res, err := new(Scratch).Flood(g.Freeze(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for tau := 0; tau <= 5; tau++ {
		if res.Hits[tau] != tau+1 {
			t.Fatalf("path hits[%d] = %d, want %d", tau, res.Hits[tau], tau+1)
		}
	}
}

func TestFloodTTLZero(t *testing.T) {
	t.Parallel()
	g := star(t, 4)
	res, err := new(Scratch).Flood(g.Freeze(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0] != 1 || res.Messages[0] != 0 {
		t.Fatalf("TTL 0: %+v", res)
	}
}

func TestFloodDisconnected(t *testing.T) {
	t.Parallel()
	g := graph.New(5)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := new(Scratch).Flood(g.Freeze(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Saturates at component size 2, never reaching N (the CM m=1
	// behavior in §V-B1).
	if res.Hits[10] != 2 {
		t.Fatalf("hits %v", res.Hits)
	}
}

func TestFloodCountsDuplicateMessages(t *testing.T) {
	t.Parallel()
	// Triangle: flooding from node 0 sends 2 messages at depth 0; both
	// depth-1 nodes forward deg-1 = 1 message each (to each other —
	// duplicates that still cost messages).
	g := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := new(Scratch).Flood(g.Freeze(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[1] != 3 {
		t.Fatalf("hits %v", res.Hits)
	}
	if res.Messages[2] != 4 { // 2 + 1 + 1
		t.Fatalf("messages %v, want cumulative 4", res.Messages)
	}
}

func TestFloodMonotone(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 2}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(Scratch).Flood(g.Freeze(), 42, 15)
	if err != nil {
		t.Fatal(err)
	}
	for tau := 1; tau <= 15; tau++ {
		if res.Hits[tau] < res.Hits[tau-1] {
			t.Fatalf("hits not monotone at τ=%d: %v", tau, res.Hits)
		}
		if res.Messages[tau] < res.Messages[tau-1] {
			t.Fatalf("messages not monotone at τ=%d", tau)
		}
	}
	if res.Hits[15] != 2000 {
		t.Fatalf("flood should sweep the connected PA graph: %d/2000", res.Hits[15])
	}
}

func TestNormalizedFloodValidation(t *testing.T) {
	t.Parallel()
	g := star(t, 4)
	if _, err := new(Scratch).NormalizedFlood(g.Freeze(), 0, 2, 0, xrand.New(1)); err == nil {
		t.Error("kMin=0 should fail")
	}
	if _, err := new(Scratch).NormalizedFlood(g.Freeze(), 7, 2, 1, xrand.New(1)); err == nil {
		t.Error("bad source should fail")
	}
}

func TestNormalizedFloodFanOut(t *testing.T) {
	t.Parallel()
	// Star from hub with kMin=2: hub forwards to exactly 2 of its 5
	// leaves.
	g := star(t, 6)
	res, err := new(Scratch).NormalizedFlood(g.Freeze(), 0, 3, 2, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[1] != 3 { // source + 2 leaves
		t.Fatalf("hits %v", res.Hits)
	}
	if res.Messages[1] != 2 {
		t.Fatalf("messages %v", res.Messages)
	}
}

func TestNormalizedFloodEqualsFloodWhenKMinLarge(t *testing.T) {
	t.Parallel()
	// With kMin >= max degree, NF degenerates to FL exactly.
	g, _, err := gen.PA(gen.PAConfig{N: 500, M: 2, KC: 10}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := new(Scratch).Flood(g.Freeze(), 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := new(Scratch).NormalizedFlood(g.Freeze(), 3, 8, 10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for tau := 0; tau <= 8; tau++ {
		if nf.Hits[tau] != fl.Hits[tau] {
			t.Fatalf("τ=%d: NF %d != FL %d", tau, nf.Hits[tau], fl.Hits[tau])
		}
	}
}

func TestNormalizedFloodCoversFewerThanFlood(t *testing.T) {
	t.Parallel()
	// On a hubby graph NF with kMin=1 must trail FL in coverage but use
	// far fewer messages.
	g, _, err := gen.PA(gen.PAConfig{N: 3000, M: 3}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := new(Scratch).Flood(g.Freeze(), 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := new(Scratch).NormalizedFlood(g.Freeze(), 10, 6, 3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if nf.Hits[6] >= fl.Hits[6] {
		t.Fatalf("NF hits %d should trail FL hits %d", nf.Hits[6], fl.Hits[6])
	}
	if nf.Messages[6] >= fl.Messages[6] {
		t.Fatalf("NF messages %d should undercut FL %d", nf.Messages[6], fl.Messages[6])
	}
}

func TestNormalizedFloodDeterministicWithSeed(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 800, M: 2}, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	a, err := new(Scratch).NormalizedFlood(g.Freeze(), 5, 8, 2, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := new(Scratch).NormalizedFlood(g.Freeze(), 5, 8, 2, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for tau := range a.Hits {
		if a.Hits[tau] != b.Hits[tau] || a.Messages[tau] != b.Messages[tau] {
			t.Fatalf("NF not deterministic at τ=%d", tau)
		}
	}
}

func TestRandomWalkBasics(t *testing.T) {
	t.Parallel()
	g := pathN(t, 5)
	res, err := new(Scratch).RandomWalk(g.Freeze(), 0, 10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// On a path from an end, a non-backtracking walk marches straight:
	// after 4 steps all 5 nodes are visited.
	if res.Hits[4] != 5 {
		t.Fatalf("hits %v", res.Hits)
	}
	if res.Messages[10] != 10 {
		t.Fatalf("messages %v", res.Messages)
	}
}

func TestRandomWalkDeadEndBacktracks(t *testing.T) {
	t.Parallel()
	// Two-node graph: the walker bounces between them forever rather
	// than dying.
	g := pathN(t, 2)
	res, err := new(Scratch).RandomWalk(g.Freeze(), 0, 6, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[6] != 2 {
		t.Fatalf("hits %v", res.Hits)
	}
}

func TestRandomWalkIsolatedSource(t *testing.T) {
	t.Parallel()
	g := graph.New(3)
	res, err := new(Scratch).RandomWalk(g.Freeze(), 0, 5, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for tau := range res.Hits {
		if res.Hits[tau] != 1 || res.Messages[tau] != 0 {
			t.Fatalf("isolated walk: hits %v, messages %v; want 1 and 0 throughout", res.Hits, res.Messages)
		}
	}
}

func TestRandomWalkHitsBounded(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 1000, M: 2}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(Scratch).RandomWalk(g.Freeze(), 0, 500, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for tau := 1; tau <= 500; tau++ {
		if res.Hits[tau] < res.Hits[tau-1] || res.Hits[tau] > tau+1 {
			t.Fatalf("hits invariant broken at t=%d: %d", tau, res.Hits[tau])
		}
	}
}

func TestRandomWalkWithNFBudget(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 2, KC: 40}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rw, nf, err := new(Scratch).RandomWalkWithNFBudget(g.Freeze(), 17, 10, 2, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	// The RW result reports exactly the NF message budget per τ.
	for tau := 0; tau <= 10; tau++ {
		if rw.Messages[tau] != nf.Messages[tau] {
			t.Fatalf("τ=%d: RW budget %d != NF messages %d", tau, rw.Messages[tau], nf.Messages[tau])
		}
	}
	// Same message budget: RW coverage must not exceed budget+1 nodes.
	for tau := 0; tau <= 10; tau++ {
		if rw.Hits[tau] > nf.Messages[tau]+1 {
			t.Fatalf("τ=%d: RW hits %d exceed budget %d", tau, rw.Hits[tau], nf.Messages[tau])
		}
	}
	// NF does better averaging than a single walk (§V-B1: "NF does
	// better averaging of search possibilities"); with equal budgets NF
	// should discover at least as many nodes at the horizon.
	if rw.Hits[10] > nf.Hits[10] {
		t.Logf("RW beat NF this draw (possible on some topologies): rw=%d nf=%d", rw.Hits[10], nf.Hits[10])
	}
}

func TestResultClamping(t *testing.T) {
	t.Parallel()
	r := Result{Hits: []int{1, 3, 7}, Messages: []int{0, 2, 5}}
	if r.HitsAt(-1) != 1 || r.HitsAt(0) != 1 || r.HitsAt(2) != 7 || r.HitsAt(99) != 7 {
		t.Fatal("HitsAt clamping broken")
	}
	if r.MessagesAt(99) != 5 || r.MessagesAt(-3) != 0 {
		t.Fatal("MessagesAt clamping broken")
	}
	var empty Result
	if empty.HitsAt(3) != 0 || empty.MessagesAt(3) != 0 {
		t.Fatal("empty result clamping broken")
	}
}
