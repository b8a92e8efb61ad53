package graph

import (
	"testing"

	"scalefree/internal/xrand"
)

// randomConnectedGraph grows a connected scale-free-ish test graph: each
// new node attaches to a random earlier node plus occasionally a second.
func randomConnectedGraph(t *testing.T, n int, seed uint64) *Graph {
	t.Helper()
	rng := xrand.New(seed)
	g := New(n)
	for u := 1; u < n; u++ {
		mustAdd(t, g, u, rng.Intn(u))
		if u > 2 {
			v := rng.Intn(u)
			if v != u && !g.HasEdge(u, v) {
				mustAdd(t, g, u, v)
			}
		}
	}
	return g
}

// TestLandmarkPathStatsBracketsExact re-derives the sampled pairs with a
// twin RNG and checks the per-pair triangle-inequality bracket against an
// exact BFS distance, plus the resulting mean bracket.
func TestLandmarkPathStatsBracketsExact(t *testing.T) {
	t.Parallel()
	f := randomConnectedGraph(t, 500, 21).Freeze()
	n := f.N()
	const landmarks, pairs = 8, 300
	st := f.LandmarkPathStats(landmarks, pairs, xrand.New(3))
	if st.Landmarks != landmarks {
		t.Fatalf("Landmarks = %d, want %d", st.Landmarks, landmarks)
	}
	if st.UnreachablePairs != 0 {
		t.Fatalf("connected graph reported %d unreachable pairs", st.UnreachablePairs)
	}

	// Twin RNG replays the identical pair draws (2 Intn per pair).
	twin := xrand.New(3)
	dist := make([]int32, n)
	var queue []int32
	var sumExact float64
	counted := 0
	for i := 0; i < pairs; i++ {
		u := twin.Intn(n)
		v := twin.Intn(n)
		if u == v {
			continue
		}
		for j := range dist {
			dist[j] = -1
		}
		queue = f.bfsInto(u, dist, queue)
		if dist[v] < 0 {
			t.Fatalf("pair (%d,%d) unreachable in connected graph", u, v)
		}
		sumExact += float64(dist[v])
		counted++
	}
	if counted != st.Pairs {
		t.Fatalf("pair accounting: twin counted %d, estimator %d", counted, st.Pairs)
	}
	exactMean := sumExact / float64(counted)
	if st.MeanLowerBound > exactMean || st.MeanDistance < exactMean {
		t.Fatalf("exact mean %v outside landmark bracket [%v, %v]",
			exactMean, st.MeanLowerBound, st.MeanDistance)
	}
	// Hub routing should be tight on this hub-heavy topology, not a
	// vacuous bound.
	if st.MeanDistance > exactMean*1.35 {
		t.Fatalf("landmark estimate %v too loose vs exact %v", st.MeanDistance, exactMean)
	}
}

// TestLandmarkPathStatsStarExact: on a star every leaf-leaf distance is 2
// and the hub landmark prices it exactly.
func TestLandmarkPathStatsStarExact(t *testing.T) {
	t.Parallel()
	const n = 64
	g := New(n)
	for v := 1; v < n; v++ {
		mustAdd(t, g, 0, v)
	}
	st := g.Freeze().LandmarkPathStats(1, 200, xrand.New(1))
	if st.Pairs == 0 {
		t.Fatal("no pairs sampled")
	}
	// Every sampled pair with the hub as endpoint has distance 1; the
	// rest 2. The single hub landmark prices both exactly.
	twin := xrand.New(1)
	var sum float64
	for i := 0; i < 200; i++ {
		u := twin.Intn(n)
		v := twin.Intn(n)
		if u == v {
			continue
		}
		if u == 0 || v == 0 {
			sum += 1
		} else {
			sum += 2
		}
	}
	want := sum / float64(st.Pairs)
	if st.MeanDistance != want {
		t.Fatalf("star mean estimate %v != exact %v", st.MeanDistance, want)
	}
}

// TestLandmarkPathStatsDeterministic: identical inputs give identical
// stats (landmark choice is RNG-free; pair draws come from the caller's
// stream).
func TestLandmarkPathStatsDeterministic(t *testing.T) {
	t.Parallel()
	f := randomConnectedGraph(t, 300, 33).Freeze()
	a := f.LandmarkPathStats(6, 500, xrand.New(4))
	b := f.LandmarkPathStats(6, 500, xrand.New(4))
	if a != b {
		t.Fatalf("landmark stats not deterministic: %+v != %+v", a, b)
	}
}

func BenchmarkLandmarkPathStats(b *testing.B) {
	rng := xrand.New(5)
	const n = 10000
	g := New(n)
	for u := 1; u < n; u++ {
		g.AddEdge(u, rng.Intn(u))
		if u > 2 {
			v := rng.Intn(u)
			if v != u && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
	}
	f := g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.LandmarkPathStats(16, 2000, xrand.New(uint64(i)))
	}
}
