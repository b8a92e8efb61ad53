package search

// Golden-seed regression tests. Every constant below was captured by
// running the pre-CSR (slice-of-slices + edge-map) implementation at the
// seed of this PR on the canonical test topology (PA N=2000 m=2 kc=40,
// RNG seed 11). The frozen kernels must reproduce them exactly — hits,
// messages, and RNG draw sequence — or the CSR migration has changed
// observable behavior.

import (
	"testing"

	"scalefree/internal/xrand"
)

func goldenEq(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

func TestGoldenFloodTrace(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(0)
	res, err := s.Flood(f, 17, 8)
	if err != nil {
		t.Fatal(err)
	}
	goldenEq(t, "flood.Hits", res.Hits, []int{1, 41, 282, 1179, 1935, 2000, 2000, 2000, 2000})
	goldenEq(t, "flood.Messages", res.Messages, []int{0, 40, 309, 1720, 4583, 5909, 5995, 5995, 5995})
}

func TestGoldenNormalizedFloodTrace(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(0)
	res, err := s.NormalizedFlood(f, 17, 8, 2, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	goldenEq(t, "nf.Hits", res.Hits, []int{1, 3, 6, 11, 18, 32, 55, 91, 149})
	goldenEq(t, "nf.Messages", res.Messages, []int{0, 2, 5, 10, 17, 31, 54, 91, 154})
}

func TestGoldenRandomWalkTrace(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(0)
	res, err := s.RandomWalk(f, 17, 64, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	goldenEq(t, "rw.Hits", res.Hits, []int{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
		21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
		39, 40, 41, 41, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54,
		55, 56, 57, 57, 58, 59, 60, 61, 62,
	})
}

func TestGoldenRandomWalkWithNFBudgetTrace(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(0)
	rw, nf, err := s.RandomWalkWithNFBudget(f, 17, 6, 2, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	goldenEq(t, "rwb.Hits", rw.Hits, []int{1, 3, 7, 14, 24, 41, 68})
	goldenEq(t, "rwb.Messages", rw.Messages, []int{0, 2, 6, 13, 23, 41, 69})
	goldenEq(t, "rwb.nf.Hits", nf.Hits, []int{1, 3, 7, 14, 24, 41, 67})
}

func TestGoldenWalkersAndStrategies(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)

	kw, err := new(Scratch).KRandomWalks(f, 17, 4, 50, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if kw.Hits[40] != 150 || kw.Hits[50] != 178 {
		t.Fatalf("kwalk hits@40/50 = %d/%d, want 150/178", kw.Hits[40], kw.Hits[50])
	}

	hd, err := new(Scratch).HighDegreeWalk(f, 17, 100, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if hd.Hits[100] != 101 {
		t.Fatalf("hds hits@100 = %d, want 101", hd.Hits[100])
	}

	pf, err := new(Scratch).ProbabilisticFlood(f, 17, 8, 0.5, xrand.New(25))
	if err != nil {
		t.Fatal(err)
	}
	goldenEq(t, "pf.Hits", pf.Hits, []int{1, 41, 186, 531, 994, 1324, 1461, 1519, 1540})
	goldenEq(t, "pf.Messages", pf.Messages, []int{0, 40, 194, 615, 1353, 2079, 2434, 2601, 2656})

	hy, err := new(Scratch).HybridSearch(f, 17, 2, 4, 50, xrand.New(27))
	if err != nil {
		t.Fatal(err)
	}
	if len(hy.Hits) != 53 || hy.Hits[2] != 282 || hy.Hits[10] != 301 || hy.Hits[52] != 420 {
		t.Fatalf("hybrid hits len=%d [2]=%d [10]=%d [52]=%d, want 53/282/301/420",
			len(hy.Hits), hy.Hits[2], hy.Hits[10], hy.Hits[52])
	}

	fd, err := new(Scratch).FloodDelivery(f, 17, 1234, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !fd.Found || fd.Time != 4 || fd.Messages != 4583 {
		t.Fatalf("flood delivery = %+v, want found at time 4 with 4583 messages", fd)
	}

	rd, err := RandomWalkDelivery(f, 17, 1234, 100000, xrand.New(29))
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Found || rd.Time != 1507 {
		t.Fatalf("rw delivery = %+v, want found at step 1507", rd)
	}
}

func TestGoldenLoadProfiles(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	ld := NewLoad(f.N())
	// k_min above every degree: NF forwards like a flood and draws no RNG.
	if err := s.NormalizedFloodLoad(f, 17, 5, f.N(), nil, ld); err != nil {
		t.Fatal(err)
	}
	if err := s.NormalizedFloodLoad(f, 17, 5, 2, xrand.New(31), ld); err != nil {
		t.Fatal(err)
	}
	// Position-weighted checksums over the accumulated per-node loads: any
	// reassignment of work between nodes changes them.
	var fsum, rsum int64
	for v := range ld.Forwards {
		fsum += ld.Forwards[v] * int64(v+1)
		rsum += ld.Receipts[v] * int64(v+1)
	}
	if ld.Total() != 5953 || fsum != 3264988 || rsum != 4693897 {
		t.Fatalf("load checksums total=%d fsum=%d rsum=%d, want 5953/3264988/4693897",
			ld.Total(), fsum, rsum)
	}
}
