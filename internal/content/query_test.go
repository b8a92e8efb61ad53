package content

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

func paGraph(t testing.TB, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: n, M: m}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWalkToItemImmediateHit(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 50, 2, 1)
	c := mustCatalog(t, 5, 1)
	p, err := Replicate(c, g.N(), 50, Uniform, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	src := int(p.Hosts(0)[0])
	steps, found := WalkToItem(g.Freeze(), p, src, 0, 10, xrand.New(3))
	if !found || steps != 0 {
		t.Fatalf("source hosts the item: steps=%d found=%v", steps, found)
	}
}

func TestWalkToItemFindsUbiquitousItem(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 200, 2, 5)
	c := mustCatalog(t, 1, 0)
	// One item replicated on every node: any first step finds it.
	p, err := Replicate(c, g.N(), g.N(), Uniform, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if p.Replicas(0) != g.N() {
		t.Fatalf("replicas %d, want %d", p.Replicas(0), g.N())
	}
	for src := 0; src < 10; src++ {
		steps, found := WalkToItem(g.Freeze(), p, src, 0, 5, xrand.New(uint64(src)))
		if !found || steps != 0 {
			t.Fatalf("src %d: steps=%d found=%v", src, steps, found)
		}
	}
}

func TestWalkToItemRespectsBudget(t *testing.T) {
	t.Parallel()
	// Item hosted nowhere near: a tiny budget must report not found.
	g := graph.New(4)
	for i := 0; i+1 < 4; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	p := &Placement{
		hosts:  [][]int32{{3}},
		onNode: []map[Item]struct{}{nil, nil, nil, {0: {}}},
	}
	steps, found := WalkToItem(g.Freeze(), p, 0, 0, 1, xrand.New(1))
	if found {
		t.Fatalf("budget 1 cannot reach node 3 (steps=%d)", steps)
	}
	// A generous budget must find it: the path graph walk is forced
	// forward by non-backtracking.
	steps, found = WalkToItem(g.Freeze(), p, 0, 0, 100, xrand.New(1))
	if !found || steps != 3 {
		t.Fatalf("path walk should arrive in 3 steps: steps=%d found=%v", steps, found)
	}
}

func TestWalkToItemIsolatedSource(t *testing.T) {
	t.Parallel()
	g := graph.New(2)
	p := &Placement{
		hosts:  [][]int32{{1}},
		onNode: []map[Item]struct{}{nil, {0: {}}},
	}
	if _, found := WalkToItem(g.Freeze(), p, 0, 0, 10, xrand.New(1)); found {
		t.Fatal("isolated source cannot find remote item")
	}
}

func TestExpectedSearchSizeValidation(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 100, 2, 9)
	c := mustCatalog(t, 5, 1)
	p, err := Replicate(c, 50, 25, Uniform, xrand.New(1)) // wrong node count
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedSearchSize(g.Freeze(), p, c, 10, 100, nil); err == nil {
		t.Error("size mismatch should fail")
	}
	p2, err := Replicate(c, g.N(), 25, Uniform, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedSearchSize(g.Freeze(), p2, c, 0, 100, nil); err == nil {
		t.Error("zero queries should fail")
	}
}

func TestExpectedSearchSizeMoreReplicasFasterSearch(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 2000, 2, 13)
	c := mustCatalog(t, 50, 0.8)
	rng := xrand.New(17)
	sparse, err := Replicate(c, g.N(), 100, Uniform, rng)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Replicate(c, g.N(), 2000, Uniform, rng)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ExpectedSearchSize(g.Freeze(), sparse, c, 300, 4000, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ExpectedSearchSize(g.Freeze(), dense, c, 300, 4000, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if rd.MeanSteps >= rs.MeanSteps {
		t.Fatalf("denser replication should cut ESS: dense %v >= sparse %v", rd.MeanSteps, rs.MeanSteps)
	}
	if rd.SuccessRate() < rs.SuccessRate() {
		t.Fatalf("denser replication should not lower success: %v < %v", rd.SuccessRate(), rs.SuccessRate())
	}
}

func TestSquareRootBeatsUniformAndProportionalESS(t *testing.T) {
	t.Parallel()
	// Cohen & Shenker's theorem: sqrt replication minimizes ESS under
	// random probing. Check the empirical ordering sqrt < uniform and
	// sqrt < proportional on a skewed catalog with a modest budget.
	g := paGraph(t, 3000, 2, 23)
	c := mustCatalog(t, 100, 1.2)
	const budget = 1500
	ess := func(s Strategy) float64 {
		t.Helper()
		p, err := Replicate(c, g.N(), budget, s, xrand.New(29))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ExpectedSearchSize(g.Freeze(), p, c, 1500, 30000, xrand.New(31))
		if err != nil {
			t.Fatal(err)
		}
		if r.SuccessRate() < 0.95 {
			t.Fatalf("%s: success rate %v too low for ESS comparison", s, r.SuccessRate())
		}
		return r.MeanSteps
	}
	u, s, pr := ess(Uniform), ess(SquareRoot), ess(Proportional)
	if s >= u {
		t.Errorf("sqrt ESS %v should beat uniform %v", s, u)
	}
	if s >= pr {
		t.Errorf("sqrt ESS %v should beat proportional %v", s, pr)
	}
}

func TestFloodForItemAndSuccess(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 500, 2, 37)
	c := mustCatalog(t, 10, 1)
	p, err := Replicate(c, g.N(), 100, SquareRoot, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	var s search.Scratch
	if _, _, err := floodForItem(f, p, -1, 0, 3, &s); err == nil {
		t.Error("bad source should fail")
	}
	// From a host, TTL 0 already finds the item with zero messages.
	src := int(p.Hosts(0)[0])
	found, msgs, err := floodForItem(f, p, src, 0, 0, &s)
	if err != nil {
		t.Fatal(err)
	}
	if !found || msgs != 0 {
		t.Fatalf("host flood TTL0: found=%v msgs=%d", found, msgs)
	}

	res, err := FloodSuccess(f, p, c, 200, 4, xrand.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 200 {
		t.Fatalf("queries %d", res.Queries)
	}
	if res.SuccessRate() <= 0 || res.SuccessRate() > 1 {
		t.Fatalf("success rate %v out of range", res.SuccessRate())
	}
	if res.MeanMessages <= 0 {
		t.Fatalf("flooding must cost messages: %v", res.MeanMessages)
	}
}

func TestFloodSuccessTTLMonotone(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 1000, 2, 47)
	c := mustCatalog(t, 20, 1)
	p, err := Replicate(c, g.N(), 100, Uniform, xrand.New(53))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, ttl := range []int{1, 3, 6} {
		res, err := FloodSuccess(g.Freeze(), p, c, 300, ttl, xrand.New(59))
		if err != nil {
			t.Fatal(err)
		}
		if res.SuccessRate() < prev {
			t.Fatalf("success rate fell from %v at larger TTL %d (%v)", prev, ttl, res.SuccessRate())
		}
		prev = res.SuccessRate()
	}
	if prev < 0.9 {
		t.Fatalf("TTL=6 flood on N=1000 should nearly always succeed: %v", prev)
	}
}

func TestFloodSuccessValidation(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 100, 2, 61)
	c := mustCatalog(t, 5, 1)
	p, err := Replicate(c, 50, 25, Uniform, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FloodSuccess(g.Freeze(), p, c, 10, 3, nil); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestESSResultZeroQueries(t *testing.T) {
	t.Parallel()
	var r ESSResult
	if r.SuccessRate() != 0 {
		t.Error("zero queries should have zero success rate")
	}
	var f FloodResult
	if f.SuccessRate() != 0 {
		t.Error("zero queries should have zero success rate")
	}
}

func TestPercentileInt(t *testing.T) {
	t.Parallel()
	if got := percentileInt(nil, 0.95); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
	xs := []int{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	if got := percentileInt(xs, 0.5); got != 5 {
		t.Errorf("median = %d, want 5", got)
	}
	if got := percentileInt(xs, 0.95); got != 10 {
		t.Errorf("p95 = %d, want 10", got)
	}
	if got := percentileInt([]int{42}, 0.95); got != 42 {
		t.Errorf("single = %d", got)
	}
}
