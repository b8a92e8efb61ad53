package des

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/xrand"
)

// testTopo builds a simple (no multi-edge, no self-loop) PA topology, the
// class the sweep specs run floods on. PA attaches each node to M distinct
// existing nodes, so per-node forward counts (deg for the source, deg-1
// for interior nodes) match the CSR kernels' message accounting exactly.
func testTopo(t testing.TB, n, m int, seed uint64) *graph.Frozen {
	t.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: n, M: m, KC: 40}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g.Freeze()
}

// TestFloodMatchesCSRZeroLatency is the correctness gate: with zero
// latency and zero loss, the DES flood's cumulative coverage and message
// counts must equal search.Scratch.Flood exactly, per TTL, for every
// source probed.
func TestFloodMatchesCSRZeroLatency(t *testing.T) {
	t.Parallel()
	f := testTopo(t, 2000, 2, 7)
	sim := NewSim(f.N())
	scratch := search.NewScratch(f.N())
	for _, maxTTL := range []int{0, 1, 3, 8} {
		for _, src := range []int{0, 1, 17, 999, 1999} {
			want, err := scratch.Flood(f, src, maxTTL)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Flood(f, src, Config{MaxTTL: maxTTL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for tt := 0; tt <= maxTTL; tt++ {
				if got.HitsWithin(tt) != want.HitsAt(tt) {
					t.Fatalf("src=%d ttl=%d: DES hits %d, CSR %d", src, tt, got.HitsWithin(tt), want.HitsAt(tt))
				}
				if got.SentBelow(tt) != want.MessagesAt(tt) {
					t.Fatalf("src=%d ttl=%d: DES msgs %d, CSR %d", src, tt, got.SentBelow(tt), want.MessagesAt(tt))
				}
			}
			if got.Sent != want.MessagesAt(maxTTL) {
				t.Fatalf("src=%d: total sent %d, CSR %d", src, got.Sent, want.MessagesAt(maxTTL))
			}
			if got.Dropped != 0 || got.Completion != 0 {
				t.Fatalf("lossless zero-latency run dropped %d, completion %v", got.Dropped, got.Completion)
			}
		}
	}
}

// TestKWalkMatchesCSRZeroLatency pins the walk side of the gate: the
// walker-major event keys must consume the RNG exactly as the CSR kernel's
// walker-by-walker loop does, so the earliest-step hop histograms agree
// bit for bit.
func TestKWalkMatchesCSRZeroLatency(t *testing.T) {
	t.Parallel()
	f := testTopo(t, 1500, 2, 11)
	sim := NewSim(f.N())
	scratch := search.NewScratch(f.N())
	for _, tc := range []struct{ walkers, steps int }{
		{1, 50}, {4, 25}, {8, 100}, {3, 0},
	} {
		for _, src := range []int{3, 500, 1499} {
			want, err := scratch.KRandomWalks(f, src, tc.walkers, tc.steps, xrand.New(42))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.KWalk(f, src, tc.walkers, tc.steps, Config{}, xrand.New(42))
			if err != nil {
				t.Fatal(err)
			}
			for tt := 0; tt <= tc.steps; tt++ {
				if got.HitsWithin(tt) != want.HitsAt(tt) {
					t.Fatalf("k=%d steps=%d src=%d t=%d: DES hits %d, CSR %d",
						tc.walkers, tc.steps, src, tt, got.HitsWithin(tt), want.HitsAt(tt))
				}
			}
			if got.Sent != want.MessagesAt(tc.steps) {
				t.Fatalf("k=%d steps=%d src=%d: DES sent %d, CSR %d",
					tc.walkers, tc.steps, src, got.Sent, want.MessagesAt(tc.steps))
			}
		}
	}
}

// TestLatencyEdgeDeterministic pins the per-edge derivation: a pure
// function of (seed, realization, edge), orientation-free, within
// [Base, Base+Jitter), and decorrelated across edges and realizations.
func TestLatencyEdgeDeterministic(t *testing.T) {
	t.Parallel()
	l := Latency{Base: 2, Jitter: 3, Phases: xrand.Phases{Seed: 5, Realization: 1}}
	if a, b := l.Edge(7, 9), l.Edge(9, 7); a != b {
		t.Fatalf("orientation changes latency: %v vs %v", a, b)
	}
	if a, b := l.Edge(7, 9), l.Edge(7, 9); a != b {
		t.Fatalf("repeated derivation differs: %v vs %v", a, b)
	}
	d := l.Edge(7, 9)
	if d < 2 || d >= 5 {
		t.Fatalf("latency %v outside [Base, Base+Jitter)", d)
	}
	if l.Edge(7, 9) == l.Edge(7, 10) {
		t.Fatal("distinct edges drew identical latency (suspicious)")
	}
	l2 := l
	l2.Phases.Realization = 2
	if l.Edge(7, 9) == l2.Edge(7, 9) {
		t.Fatal("distinct realizations drew identical latency (suspicious)")
	}
	if got := (Latency{Base: 4}).Edge(1, 2); got != 4 {
		t.Fatalf("zero-jitter latency = %v, want Base", got)
	}
}

// TestFloodLatencyModel checks the time accounting under a uniform Base
// delay: every hop-h first receipt arrives at exactly h·Base, and the
// completion time is the deepest delivery.
func TestFloodLatencyModel(t *testing.T) {
	t.Parallel()
	f := testTopo(t, 500, 2, 3)
	sim := NewSim(f.N())
	const base = 2.5
	m, err := sim.Flood(f, 0, Config{MaxTTL: 5, Latency: Latency{Base: base}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for h, cnt := range m.HitsByHop {
		if cnt == 0 {
			continue
		}
		mean := m.TimeByHop[h] / float64(cnt)
		if math.Abs(mean-base*float64(h)) > 1e-9 {
			t.Fatalf("hop %d mean arrival %v, want %v", h, mean, base*float64(h))
		}
	}
	deepest := 0
	for h, cnt := range m.HitsByHop {
		if cnt > 0 {
			deepest = h
		}
	}
	// Duplicate arrivals can land one hop past the deepest first receipt.
	if m.Completion < base*float64(deepest) {
		t.Fatalf("completion %v earlier than deepest first receipt %v", m.Completion, base*float64(deepest))
	}
}

// TestFloodLossAndDedupCounters exercises the transport knobs: loss drops
// copies and shrinks coverage; disabling duplicate suppression re-forwards
// duplicates and sends strictly more messages.
func TestFloodLossAndDedupCounters(t *testing.T) {
	t.Parallel()
	f := testTopo(t, 800, 2, 13)
	sim := NewSim(f.N())
	clean, err := sim.Flood(f, 5, Config{MaxTTL: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanHits, cleanDup := clean.Hits, clean.Duplicates
	if cleanDup == 0 {
		t.Fatal("a flood on a graph with cycles should see duplicate arrivals")
	}

	lossy, err := sim.Flood(f, 5, Config{MaxTTL: 6, Loss: 0.3}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Dropped == 0 {
		t.Fatal("30% loss dropped nothing")
	}
	if lossy.Hits > cleanHits {
		t.Fatalf("loss increased coverage: %d > %d", lossy.Hits, cleanHits)
	}
	if lossy.Delivered+lossy.Dropped != lossy.Sent {
		t.Fatalf("delivered %d + dropped %d != sent %d", lossy.Delivered, lossy.Dropped, lossy.Sent)
	}

	nodedup, err := sim.Flood(f, 5, Config{MaxTTL: 4, NoDedup: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := sim.Flood(f, 5, Config{MaxTTL: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodedup.Sent <= dedup.Sent {
		t.Fatalf("NoDedup sent %d <= dedup %d", nodedup.Sent, dedup.Sent)
	}
	if nodedup.Hits != dedup.Hits {
		t.Fatalf("dedup changes coverage at equal TTL: %d vs %d", nodedup.Hits, dedup.Hits)
	}
}

// TestRunDeterminism: identical inputs give identical Metrics, on a reused
// Sim and on a fresh one — the per-run counterpart of the engine-level
// worker-invariance tests in internal/sim.
func TestRunDeterminism(t *testing.T) {
	t.Parallel()
	f := testTopo(t, 600, 2, 17)
	cfg := Config{
		MaxTTL:  6,
		Latency: Latency{Base: 1, Jitter: 2, Phases: xrand.Phases{Seed: 9, Realization: 3}},
		Loss:    0.1,
	}
	snap := func(m Metrics) Metrics {
		m.HitsByHop = append([]int(nil), m.HitsByHop...)
		m.SentByHop = append([]int(nil), m.SentByHop...)
		m.TimeByHop = append([]float64(nil), m.TimeByHop...)
		return m
	}
	sim := NewSim(f.N())
	a, err := sim.Flood(f, 7, cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	first := snap(a)
	b, err := sim.Flood(f, 7, cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snap(b)) {
		t.Fatal("reused-Sim rerun differs")
	}
	c, err := NewSim(0).Flood(f, 7, cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snap(c)) {
		t.Fatal("fresh-Sim rerun differs")
	}

	kw := func() Metrics {
		m, err := sim.KWalk(f, 7, 4, 40, cfg, xrand.New(22))
		if err != nil {
			t.Fatal(err)
		}
		return snap(m)
	}
	if ka, kb := kw(), kw(); !reflect.DeepEqual(ka, kb) {
		t.Fatal("KWalk rerun differs")
	}
}

// TestSteadyStateAllocs pins the pooled-buffer contract: after warm-up,
// repeated runs on one topology allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	f := testTopo(t, 1000, 2, 23)
	sim := NewSim(f.N())
	cfg := Config{MaxTTL: 6, Latency: Latency{Base: 1, Jitter: 1, Phases: xrand.Phases{Seed: 2}}}
	rng := xrand.New(3)
	if _, err := sim.Flood(f, 0, cfg, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.Flood(f, 1, cfg, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("Flood steady state allocates %v/op", allocs)
	}
	// A lossless flood never draws, so a nil rng must not be replaced by
	// a freshly allocated one.
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.Flood(f, 1, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("Flood with a nil rng allocates %v/op", allocs)
	}
	if _, err := sim.KWalk(f, 0, 4, 50, cfg, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.KWalk(f, 1, 4, 50, cfg, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("KWalk steady state allocates %v/op", allocs)
	}
}

// TestHeapPopsInTimeKeyOrder drains shuffled batches, most of them sharing
// a handful of times, and requires exact (time, key) order. The sizes
// straddle where the 4-ary heap's last level starts (1, 5, 21, 85 nodes
// fill 1–4 levels), so a sift that mishandles a node with one to three
// children shows.
func TestHeapPopsInTimeKeyOrder(t *testing.T) {
	t.Parallel()
	rng := xrand.New(31)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 21, 22, 85, 86} {
		for trial := 0; trial < 50; trial++ {
			batch := make([]event, n)
			for i := range batch {
				batch[i] = event{time: float64(rng.Intn(4)), key: uint64(i), node: int32(i)}
			}
			rng.Shuffle(n, func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			var s Sim
			for _, ev := range batch {
				s.push(ev)
			}
			sort.Slice(batch, func(i, j int) bool {
				a, b := batch[i], batch[j]
				return a.time < b.time || (a.time == b.time && a.key < b.key)
			})
			for i, want := range batch {
				if got := s.pop(); got != want {
					t.Fatalf("n=%d trial %d: pop %d = %+v, want %+v", n, trial, i, got, want)
				}
			}
			if len(s.heap) != 0 {
				t.Fatalf("n=%d: %d events left after draining", n, len(s.heap))
			}
		}
	}
}

// TestValidation covers the error paths.
func TestValidation(t *testing.T) {
	t.Parallel()
	f := testTopo(t, 50, 2, 29)
	sim := NewSim(f.N())
	if _, err := sim.Flood(f, -1, Config{MaxTTL: 2}, nil); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := sim.Flood(f, 50, Config{MaxTTL: 2}, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := sim.Flood(f, 0, Config{MaxTTL: -1}, nil); err == nil {
		t.Fatal("negative TTL accepted")
	}
	if _, err := sim.Flood(f, 0, Config{MaxTTL: 2, Loss: 1.5}, nil); err == nil {
		t.Fatal("loss > 1 accepted")
	}
	// Every range check must also refuse NaN, for which each comparison
	// is false.
	nan := math.NaN()
	if _, err := sim.Flood(f, 0, Config{MaxTTL: 2, Loss: nan}, nil); !errors.Is(err, ErrBadLoss) {
		t.Fatalf("NaN loss: err %v, want ErrBadLoss", err)
	}
	for _, fp := range []FailPlan{{NodeFrac: nan, MTBF: 1}, {LinkFrac: nan, MTBF: 1}, {NodeFrac: 0.2, MTBF: nan}, {NodeFrac: 0.2, MTBF: 1, Downtime: nan}} {
		if _, err := sim.Flood(f, 0, Config{MaxTTL: 2, Fail: fp}, nil); !errors.Is(err, ErrBadFail) {
			t.Fatalf("fail plan %+v: err %v, want ErrBadFail", fp, err)
		}
	}
	for _, lat := range []Latency{{Base: -1}, {Jitter: -0.5}, {Base: math.NaN()}, {Jitter: math.NaN()}, {Base: math.Inf(1)}, {Base: 1, Jitter: math.Inf(1)}} {
		if _, err := sim.Flood(f, 0, Config{MaxTTL: 2, Latency: lat}, nil); !errors.Is(err, ErrBadLatency) {
			t.Fatalf("flood latency %+v: err %v, want ErrBadLatency", lat, err)
		}
		if _, err := sim.KWalk(f, 0, 1, 5, Config{Latency: lat}, nil); !errors.Is(err, ErrBadLatency) {
			t.Fatalf("k-walk latency %+v: err %v, want ErrBadLatency", lat, err)
		}
	}
	if _, err := sim.KWalk(f, 0, 0, 5, Config{}, nil); err == nil {
		t.Fatal("zero walkers accepted")
	}
	if _, err := sim.KWalk(f, 0, 1, -1, Config{}, nil); err == nil {
		t.Fatal("negative steps accepted")
	}
}
