package search

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

func TestKRandomWalksValidation(t *testing.T) {
	t.Parallel()
	g := pathN(t, 4)
	if _, err := new(Scratch).KRandomWalks(g.Freeze(), 0, 0, 5, xrand.New(1)); err == nil {
		t.Error("walkers=0 should fail")
	}
	if _, err := new(Scratch).KRandomWalks(g.Freeze(), -1, 2, 5, xrand.New(1)); err == nil {
		t.Error("bad source should fail")
	}
}

// TestKRandomWalksIsolatedSource pins the k-walk stuck rule: walkers at an
// isolated source cover nothing and draw nothing, yet each is still charged
// its steps (Messages[t] = walkers·t).
func TestKRandomWalksIsolatedSource(t *testing.T) {
	t.Parallel()
	g := graph.New(3)
	rng := xrand.New(4)
	res, err := new(Scratch).KRandomWalks(g.Freeze(), 1, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for tau := range res.Hits {
		if res.Hits[tau] != 1 || res.Messages[tau] != 3*tau {
			t.Fatalf("isolated k-walks: hits %v, messages %v; want 1 and 3·t", res.Hits, res.Messages)
		}
	}
	if rng.Uint64() != xrand.New(4).Uint64() {
		t.Fatal("stuck walkers drew from the RNG")
	}
}

func TestKRandomWalksSingleEqualsRandomWalkShape(t *testing.T) {
	t.Parallel()
	// One walker must satisfy the same invariants as RandomWalk: hits
	// monotone, bounded by steps+1.
	g, _, err := gen.PA(gen.PAConfig{N: 1000, M: 2}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(Scratch).KRandomWalks(g.Freeze(), 0, 1, 300, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for tau := 1; tau <= 300; tau++ {
		if res.Hits[tau] < res.Hits[tau-1] || res.Hits[tau] > tau+1 {
			t.Fatalf("invariant broken at %d: %d", tau, res.Hits[tau])
		}
	}
}

func TestKRandomWalksMoreWalkersMoreCoverage(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 3000, M: 2, KC: 40}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	one, err := new(Scratch).KRandomWalks(g.Freeze(), 5, 1, 200, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := new(Scratch).KRandomWalks(g.Freeze(), 5, 8, 200, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if eight.Hits[200] <= one.Hits[200] {
		t.Fatalf("8 walkers (%d) should out-cover 1 walker (%d)", eight.Hits[200], one.Hits[200])
	}
	if eight.Messages[200] != 8*200 {
		t.Fatalf("messages %d, want 1600", eight.Messages[200])
	}
}

func TestKRandomWalksApproachNF(t *testing.T) {
	t.Parallel()
	// §V-B1: "multiple RWs would perform more similar to NF". With the
	// same message budget, k walkers should close most of the gap between
	// a single walk and NF.
	g, _, err := gen.PA(gen.PAConfig{N: 4000, M: 2, KC: 40}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	const ttl, kMin = 8, 2
	var nfHits, oneHits, multiHits float64
	const sources = 20
	fz := g.Freeze()
	for s := 0; s < sources; s++ {
		src := rng.Intn(g.N())
		nf, err := new(Scratch).NormalizedFlood(g.Freeze(), src, ttl, kMin, rng)
		if err != nil {
			t.Fatal(err)
		}
		budget := nf.Messages[ttl]
		single, err := new(Scratch).RandomWalk(g.Freeze(), src, budget, rng)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := new(Scratch).KRandomWalks(fz, src, 8, budget/8, rng)
		if err != nil {
			t.Fatal(err)
		}
		nfHits += float64(nf.HitsAt(ttl))
		oneHits += float64(single.HitsAt(budget))
		multiHits += float64(multi.HitsAt(budget / 8))
	}
	if multiHits < oneHits*0.8 {
		t.Fatalf("multiple walkers (%.0f) collapsed vs single walk (%.0f)", multiHits, oneHits)
	}
	t.Logf("hits at equal budget: NF=%.0f, 8-walkers=%.0f, single=%.0f", nfHits, multiHits, oneHits)
}

func TestFloodDelivery(t *testing.T) {
	t.Parallel()
	g := pathN(t, 8)
	d, err := new(Scratch).FloodDelivery(g.Freeze(), 0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Found || d.Time != 5 {
		t.Fatalf("delivery %+v, want found at 5 hops", d)
	}
	// Out of TTL range.
	d, err = new(Scratch).FloodDelivery(g.Freeze(), 0, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Found {
		t.Fatalf("target beyond TTL reported found: %+v", d)
	}
	// Self-delivery.
	d, err = new(Scratch).FloodDelivery(g.Freeze(), 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Found || d.Time != 0 {
		t.Fatalf("self delivery %+v", d)
	}
}

func TestFloodDeliveryValidation(t *testing.T) {
	t.Parallel()
	g := pathN(t, 3)
	if _, err := new(Scratch).FloodDelivery(g.Freeze(), 0, 9, 5); err == nil {
		t.Error("bad target should fail")
	}
}

func TestRandomWalkDelivery(t *testing.T) {
	t.Parallel()
	g := pathN(t, 6)
	// Non-backtracking walk on a path marches straight: target at
	// distance 4 is hit in exactly 4 steps.
	d, err := RandomWalkDelivery(g.Freeze(), 0, 4, 100, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Found || d.Time != 4 {
		t.Fatalf("delivery %+v", d)
	}
	// Unreachable within budget.
	d, err = RandomWalkDelivery(g.Freeze(), 0, 5, 2, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Found {
		t.Fatalf("found beyond budget: %+v", d)
	}
}

func TestRandomWalkDeliveryDisconnected(t *testing.T) {
	t.Parallel()
	g := pathN(t, 3)
	g.AddNode() // isolated node 3
	d, err := RandomWalkDelivery(g.Freeze(), 0, 3, 1000, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Found {
		t.Fatal("reached a disconnected target")
	}
	// From the isolated node the walker is stuck: it is charged the whole
	// budget, as a miss is, and draws nothing.
	rng := xrand.New(2)
	if d, err = RandomWalkDelivery(g.Freeze(), 3, 0, 7, rng); err != nil {
		t.Fatal(err)
	}
	if want := (Delivery{Found: false, Time: 7, Messages: 7}); d != want {
		t.Fatalf("isolated source delivery %+v, want %+v", d, want)
	}
	if rng.Uint64() != xrand.New(2).Uint64() {
		t.Fatal("stuck walker drew from the RNG")
	}
}

func TestDeliveryScalingSanity(t *testing.T) {
	t.Parallel()
	// FL delivery time grows ~log N (Eq. 6); RW delivery grows much
	// faster (Eq. 7). Compare mean delivery at two sizes on gamma=2.2 CM
	// giants.
	meanDelivery := func(n int, seed uint64) (fl, rw float64) {
		fz, _, err := gen.CMFrozen(gen.CMConfig{N: n, M: 2, Gamma: 2.2}, gen.NewBuild(xrand.Phases{Seed: seed}, 1))
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed + 1)
		const pairs = 25
		var flSum, rwSum float64
		flN, rwN := 0, 0
		for i := 0; i < pairs; i++ {
			src, dst := rng.Intn(fz.N()), rng.Intn(fz.N())
			fd, err := new(Scratch).FloodDelivery(fz, src, dst, 50)
			if err != nil {
				t.Fatal(err)
			}
			if fd.Found {
				flSum += float64(fd.Time)
				flN++
			}
			rd, err := RandomWalkDelivery(fz, src, dst, 100*n, rng)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Found {
				rwSum += float64(rd.Time)
				rwN++
			}
		}
		if flN == 0 || rwN == 0 {
			t.Fatal("no successful deliveries")
		}
		return flSum / float64(flN), rwSum / float64(rwN)
	}
	flSmall, rwSmall := meanDelivery(1000, 11)
	flBig, rwBig := meanDelivery(4000, 13)
	// FL grows slowly (log-ish): well under 2x for a 4x size increase.
	if flBig > 2*flSmall+1 {
		t.Fatalf("FL delivery grew too fast: %.1f -> %.1f", flSmall, flBig)
	}
	// RW grows much faster than FL.
	if rwBig/rwSmall < flBig/flSmall {
		t.Logf("RW growth (%.1f->%.1f) vs FL (%.1f->%.1f): noisy draw", rwSmall, rwBig, flSmall, flBig)
	}
	if rwBig < 5*flBig {
		t.Fatalf("RW delivery (%.0f) should dwarf FL (%.1f) at N=4000", rwBig, flBig)
	}
}
