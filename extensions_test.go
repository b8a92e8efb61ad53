package scalefree

// Public-API tests for the extension surface: multiple walkers, delivery
// times, and robustness analysis.

import (
	"testing"

	"scalefree/internal/search"
)

func TestPublicAPIKRandomWalks(t *testing.T) {
	t.Parallel()
	g, _, err := GeneratePA(PAConfig{N: 2000, M: 2}, NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewSearchScratch(0).KRandomWalks(Freeze(g), 0, 4, 100, NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitsAt(100) < 50 {
		t.Fatalf("4 walkers × 100 steps covered only %d nodes", res.HitsAt(100))
	}
	if res.MessagesAt(100) != 400 {
		t.Fatalf("messages %d", res.MessagesAt(100))
	}
}

func TestPublicAPIDelivery(t *testing.T) {
	t.Parallel()
	g, _, err := GeneratePA(PAConfig{N: 3000, M: 2}, NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	f := Freeze(g)
	fd, err := NewSearchScratch(0).FloodDelivery(f, 0, 1500, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !fd.Found {
		t.Fatal("flood failed to deliver on a connected graph")
	}
	rd, err := search.RandomWalkDelivery(f, 0, 1500, 1_000_000, NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Found {
		t.Fatal("walk failed to deliver within a generous budget")
	}
	if rd.Time < fd.Time {
		t.Fatalf("RW delivery (%d) beat the shortest path (%d)", rd.Time, fd.Time)
	}
}

func TestPublicAPIMetrics(t *testing.T) {
	t.Parallel()
	g, _, err := GeneratePA(PAConfig{N: 3000, M: 3}, NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	c := GlobalClustering(g)
	if c < 0 || c > 1 {
		t.Fatalf("clustering %v", c)
	}
	if _, err := DegreeAssortativity(g); err != nil {
		t.Fatal(err)
	}
	pts, err := Robustness(g, RemoveHighestDegree, 0.05, 0.3, NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 || pts[0].GiantFrac < 0.99 {
		t.Fatalf("robustness points %v", pts)
	}
}
