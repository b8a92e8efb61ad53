package search

import (
	"sync"
	"testing"

	"scalefree/internal/xrand"
)

// --- Allocation regression -------------------------------------------

// The strategy kernels must match FL/NF/RW: after warmup, repeated
// searches on one topology allocate nothing (ISSUE 3 acceptance: the
// strategies spec is allocation-free end to end).

func TestScratchKRandomWalksZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	rng := xrand.New(43)
	if _, err := s.KRandomWalks(f, 17, 8, 500, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.KRandomWalks(f, 17, 8, 500, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("KRandomWalks with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchHighDegreeWalkZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	rng := xrand.New(47)
	if _, err := s.HighDegreeWalk(f, 17, 500, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.HighDegreeWalk(f, 17, 500, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("HighDegreeWalk with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchProbabilisticFloodZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	rng := xrand.New(53)
	// Warmup: p=1 is a full flood, sizing the queues to their maximum.
	if _, err := s.ProbabilisticFlood(f, 17, 30, 1, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.ProbabilisticFlood(f, 17, 8, 0.5, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProbabilisticFlood with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchHybridSearchZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	rng := xrand.New(59)
	// Warmup twice: the first call sizes flood queues, the walker seen
	// list, and the start buffer; the second confirms steady state exists.
	for i := 0; i < 2; i++ {
		if _, err := s.HybridSearch(f, 17, 2, 8, 500, rng); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.HybridSearch(f, 17, 2, 8, 500, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("HybridSearch with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

func TestScratchFloodDeliveryZeroAllocs(t *testing.T) {
	f := scratchTestFrozen(t)
	s := NewScratch(f.N())
	if _, err := s.FloodDelivery(f, 17, 1999, 30); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.FloodDelivery(f, 17, 1999, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FloodDelivery with reused scratch: %.1f allocs/op, want 0", allocs)
	}
}

// --- Shared-Frozen concurrency ---------------------------------------

// TestSharedFrozenConcurrentKernels hammers ONE *graph.Frozen from 16
// goroutines, each running every kernel on its own Scratch and RNG stream.
// Frozen is immutable and documented safe for concurrent readers — this is
// the contract the source-sharded scheduler in internal/sim leans on. Run
// under -race in CI. Each goroutine's aggregate is compared against a
// serial replay of the same streams, so the test also catches cross-shard
// state leaks, not just data races.
func TestSharedFrozenConcurrentKernels(t *testing.T) {
	t.Parallel()
	f := scratchTestFrozen(t)
	const goroutines = 16
	run := func(id int, s *Scratch) (sum int) {
		rng := xrand.NewStream(99, uint64(id))
		src := rng.Intn(f.N())
		flood, err := s.Flood(f, src, 6)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += flood.HitsAt(6)
		nf, err := s.NormalizedFlood(f, src, 6, 2, rng)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += nf.HitsAt(6)
		rw, err := s.RandomWalk(f, src, 300, rng)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += rw.HitsAt(300)
		kw, err := s.KRandomWalks(f, src, 4, 100, rng)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += kw.HitsAt(100)
		hd, err := s.HighDegreeWalk(f, src, 200, rng)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += hd.HitsAt(200)
		pf, err := s.ProbabilisticFlood(f, src, 6, 0.5, rng)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += pf.HitsAt(6)
		hy, err := s.HybridSearch(f, src, 2, 4, 100, rng)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += hy.HitsAt(2 + 100)
		return sum
	}

	want := make([]int, goroutines)
	serial := NewScratch(f.N())
	for id := range want {
		want[id] = run(id, serial)
	}

	got := make([]int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for id := 0; id < goroutines; id++ {
		go func(id int) {
			defer wg.Done()
			got[id] = run(id, NewScratch(0))
		}(id)
	}
	wg.Wait()
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("goroutine %d: concurrent aggregate %d != serial %d", id, got[id], want[id])
		}
	}
}

// --- Benchmarks --------------------------------------------------------

// Scratch strategy kernels: the 0 allocs/op record for BENCH_PR3.json.

func BenchmarkScratchKRandomWalks(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(61)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KRandomWalks(f, i%f.N(), 8, 200, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScratchHighDegreeWalk(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(67)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.HighDegreeWalk(f, i%f.N(), 500, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScratchProbabilisticFlood(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(71)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ProbabilisticFlood(f, i%f.N(), 8, 0.5, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScratchHybridSearch(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	rng := xrand.New(73)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.HybridSearch(f, i%f.N(), 2, 8, 200, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScratchFloodDelivery(b *testing.B) {
	f := scratchTestFrozen(b)
	s := NewScratch(f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FloodDelivery(f, i%f.N(), (i+1000)%f.N(), 8); err != nil {
			b.Fatal(err)
		}
	}
}
