package des

import (
	"reflect"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// failTopo builds a small PA topology for failure tests.
func failTopo(t testing.TB, n int, seed uint64) *graph.Frozen {
	t.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: n, M: 2, KC: 40}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g.Freeze()
}

// pathFrozen builds the path 0-1-2-...-(n-1).
func pathFrozen(t testing.TB, n int) *graph.Frozen {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g.Freeze()
}

// TestFailDisabledBitIdentical pins the acceptance gate: a config whose
// FailPlan is the zero value must produce bit-identical metrics to a
// config without any failure plan, for both kernels.
func TestFailDisabledBitIdentical(t *testing.T) {
	f := failTopo(t, 300, 9)
	ph := xrand.Phases{Seed: 9, Realization: 0}
	base := Config{MaxTTL: 6, Latency: Latency{Base: 1, Jitter: 1, Phases: ph}, Loss: 0.05}
	withPlan := base
	withPlan.Fail = FailPlan{Phases: ph} // zero fractions: disabled

	s1, s2 := NewSim(f.N()), NewSim(f.N())
	for src := 0; src < 10; src++ {
		m1, err := s1.Flood(f, src, base, xrand.NewStream(9, 0, uint64(src)))
		if err != nil {
			t.Fatal(err)
		}
		m2, err := s2.Flood(f, src, withPlan, xrand.NewStream(9, 0, uint64(src)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("src %d: flood diverged with a disabled FailPlan:\n%+v\n%+v", src, m1, m2)
		}
		k1, err := s1.KWalk(f, src, 8, 32, base, xrand.NewStream(9, 1, uint64(src)))
		if err != nil {
			t.Fatal(err)
		}
		k2, err := s2.KWalk(f, src, 8, 32, withPlan, xrand.NewStream(9, 1, uint64(src)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(k1, k2) {
			t.Fatalf("src %d: k-walk diverged with a disabled FailPlan:\n%+v\n%+v", src, k1, k2)
		}
	}
}

// TestFloodNodeCrashAll: with every node crashing almost immediately and
// unit latency, the flood covers only the source; every hop-1 arrival is
// a FailDropped.
func TestFloodNodeCrashAll(t *testing.T) {
	f := pathFrozen(t, 5)
	ph := xrand.Phases{Seed: 3, Realization: 0}
	cfg := Config{
		MaxTTL:  4,
		Latency: Latency{Base: 1, Phases: ph},
		Fail:    FailPlan{NodeFrac: 1, MTBF: 1e-9, Phases: ph},
	}
	m, err := NewSim(f.N()).Flood(f, 0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hits != 1 {
		t.Fatalf("hits %d, want 1 (everyone but the source is down)", m.Hits)
	}
	if m.Sent != 1 || m.FailDropped != 1 || m.Delivered != 0 {
		t.Fatalf("sent=%d failDropped=%d delivered=%d, want 1/1/0", m.Sent, m.FailDropped, m.Delivered)
	}
}

// TestFloodLinkPartitionAll: with every edge partitioned almost
// immediately, the time-0 sends from the source still get out (nothing
// is down at t=0) but every later hop is cut.
func TestFloodLinkPartitionAll(t *testing.T) {
	f := pathFrozen(t, 5)
	ph := xrand.Phases{Seed: 3, Realization: 0}
	cfg := Config{
		MaxTTL:  4,
		Latency: Latency{Base: 1, Phases: ph},
		Fail:    FailPlan{LinkFrac: 1, MTBF: 1e-9, Phases: ph},
	}
	m, err := NewSim(f.N()).Flood(f, 0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hits != 2 {
		t.Fatalf("hits %d, want 2 (source + its hop-1 neighbor)", m.Hits)
	}
	if m.FailDropped != 1 {
		t.Fatalf("failDropped %d, want 1 (node 1's forward to node 2)", m.FailDropped)
	}
}

// TestKWalkNodeCrashKillsWalkers: crashed nodes swallow walkers.
func TestKWalkNodeCrashKillsWalkers(t *testing.T) {
	f := pathFrozen(t, 6)
	ph := xrand.Phases{Seed: 5, Realization: 0}
	cfg := Config{
		Latency: Latency{Base: 1, Phases: ph},
		Fail:    FailPlan{NodeFrac: 1, MTBF: 1e-9, Phases: ph},
	}
	m, err := NewSim(f.N()).KWalk(f, 0, 4, 10, cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Hits != 1 {
		t.Fatalf("hits %d, want 1", m.Hits)
	}
	if m.FailDropped != 4 {
		t.Fatalf("failDropped %d, want 4 (every walker dies on its first hop)", m.FailDropped)
	}
}

// TestFailDeterministic: the same failure plan yields the same metrics
// run after run.
func TestFailDeterministic(t *testing.T) {
	f := failTopo(t, 400, 12)
	ph := xrand.Phases{Seed: 12, Realization: 3}
	cfg := Config{
		MaxTTL:  6,
		Latency: Latency{Base: 1, Jitter: 1, Phases: ph},
		Fail:    FailPlan{NodeFrac: 0.2, LinkFrac: 0.1, MTBF: 2, Phases: ph},
	}
	run := func() Metrics {
		m, err := NewSim(f.N()).Flood(f, 7, cfg, xrand.NewStream(12, 3, 7))
		if err != nil {
			t.Fatal(err)
		}
		// Copy the aliased slices so the comparison owns its data.
		out := m
		out.HitsByHop = append([]int(nil), m.HitsByHop...)
		out.SentByHop = append([]int(nil), m.SentByHop...)
		out.TimeByHop = append([]float64(nil), m.TimeByHop...)
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("failure schedule not deterministic:\n%+v\n%+v", a, b)
	}
	if a.FailDropped == 0 {
		t.Fatal("plan with 20% node / 10% link failures never fired")
	}
}
