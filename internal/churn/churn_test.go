package churn

import (
	"testing"
	"testing/quick"

	"scalefree/internal/gen"
	"scalefree/internal/xrand"
)

func mustSim(t testing.TB, cfg Config, seed uint64) *Simulator {
	t.Helper()
	s, err := New(cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func baseCfg() Config {
	return Config{InitialN: 300, M: 2, KC: 40, Join: JoinPreferential, Repair: ReconnectRepair, Graceful: true}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	cases := []Config{
		{InitialN: 2, M: 2, KC: 40},            // too small
		{InitialN: 100, M: 0, KC: 40},          // bad M
		{InitialN: 100, M: 3, KC: 2},           // KC < M
		{InitialN: -5, M: 1, KC: gen.NoCutoff}, // negative
	}
	for i, cfg := range cases {
		if _, err := New(cfg, xrand.New(1)); err == nil {
			t.Errorf("case %d: config %+v should fail", i, cfg)
		}
	}
}

func TestNewStartsAllAlive(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 1)
	if s.Alive() != 300 {
		t.Fatalf("alive %d, want 300", s.Alive())
	}
	sub, _ := s.AliveGraph()
	if sub.N() != 300 {
		t.Fatalf("alive graph order %d", sub.N())
	}
	if !sub.IsConnected() {
		t.Fatal("initial PA overlay must be connected")
	}
}

func TestJoinAddsPeerWithMLinks(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 2)
	id, err := s.Join()
	if err != nil {
		t.Fatal(err)
	}
	if s.Alive() != 301 {
		t.Fatalf("alive %d after join", s.Alive())
	}
	if deg := s.g.Degree(id); deg != 2 {
		t.Fatalf("joiner degree %d, want M=2", deg)
	}
	st := s.Stats()
	if st.Joins != 1 {
		t.Fatalf("joins %d", st.Joins)
	}
	if st.Messages < 2*2 {
		t.Fatalf("join must cost at least 2 messages per link: %d", st.Messages)
	}
}

func TestLeaveRemovesPeerAndEdges(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 3)
	id, err := s.Leave(-1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Alive() != 299 {
		t.Fatalf("alive %d after leave", s.Alive())
	}
	if deg := s.g.Degree(id); deg != 0 {
		t.Fatalf("departed peer still has %d edges", deg)
	}
	if _, err := s.Leave(id); err == nil {
		t.Fatal("leaving a dead peer should fail")
	}
}

func TestLeaveSpecificPeer(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 4)
	id, err := s.Leave(42)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Fatalf("departed %d, want 42", id)
	}
}

func TestReconnectRepairRestoresMinimumDegree(t *testing.T) {
	t.Parallel()
	cfg := baseCfg()
	s := mustSim(t, cfg, 5)
	// Churn hard, then verify every alive peer has degree >= M (repair
	// keeps the guideline invariant; arrivals may briefly fail stubs only
	// if everything saturates, which cannot happen at kc=40).
	for e := 0; e < 400; e++ {
		if err := s.Step(0.5); err != nil {
			t.Fatal(err)
		}
	}
	sub, _ := s.AliveGraph()
	if md := sub.MinDegree(); md < cfg.M {
		t.Fatalf("repair failed: min alive degree %d < M=%d (failed stubs %d)",
			md, cfg.M, s.Stats().FailedStubs)
	}
	if s.Stats().RepairLinks == 0 {
		t.Fatal("expected some repair links after 400 events")
	}
}

func TestNoRepairDegradesDegree(t *testing.T) {
	t.Parallel()
	cfg := baseCfg()
	cfg.Repair = NoRepair
	s := mustSim(t, cfg, 6)
	for e := 0; e < 400; e++ {
		if err := s.Step(0.5); err != nil {
			t.Fatal(err)
		}
	}
	sub, _ := s.AliveGraph()
	if md := sub.MinDegree(); md >= cfg.M {
		t.Fatalf("without repair some peer should fall below M: min degree %d", md)
	}
	if s.Stats().RepairLinks != 0 {
		t.Fatalf("no-repair created %d repair links", s.Stats().RepairLinks)
	}
}

func TestHardCutoffHoldsUnderChurn(t *testing.T) {
	t.Parallel()
	cfg := baseCfg()
	cfg.KC = 10
	s := mustSim(t, cfg, 7)
	for e := 0; e < 600; e++ {
		if err := s.Step(0.6); err != nil {
			t.Fatal(err)
		}
	}
	sub, _ := s.AliveGraph()
	if maxDeg := sub.MaxDegree(); maxDeg > 10 {
		t.Fatalf("hard cutoff violated under churn: max degree %d > 10", maxDeg)
	}
}

func TestGracefulLeaveCostsNotices(t *testing.T) {
	t.Parallel()
	crash := baseCfg()
	crash.Graceful = false
	crash.Repair = NoRepair
	graceful := baseCfg()
	graceful.Repair = NoRepair

	sc := mustSim(t, crash, 8)
	sg := mustSim(t, graceful, 8)
	if _, err := sc.Leave(10); err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Leave(10); err != nil {
		t.Fatal(err)
	}
	if sc.Stats().Messages != 0 {
		t.Fatalf("crash leave should be silent: %d messages", sc.Stats().Messages)
	}
	if sg.Stats().Messages == 0 {
		t.Fatal("graceful leave should cost notices")
	}
}

func TestStepJoinProbabilityExtremes(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 9)
	for e := 0; e < 50; e++ {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Alive() != 350 {
		t.Fatalf("pJoin=1: alive %d, want 350", s.Alive())
	}
	for e := 0; e < 50; e++ {
		if err := s.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Alive() != 300 {
		t.Fatalf("pJoin=0: alive %d, want 300", s.Alive())
	}
}

func TestOverlayDiesOutGracefully(t *testing.T) {
	t.Parallel()
	cfg := baseCfg()
	cfg.InitialN = 10
	cfg.KC = gen.NoCutoff
	s := mustSim(t, cfg, 10)
	trace, err := s.Run(50, 0, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Alive() != 0 {
		t.Fatalf("50 departures should empty a 10-peer overlay: alive %d", s.Alive())
	}
	if len(trace) == 0 {
		t.Fatal("trace must have at least one snapshot")
	}
	last := trace[len(trace)-1]
	if last.Alive != 0 {
		t.Fatalf("final snapshot alive = %d", last.Alive)
	}
}

func TestProbeSnapshotFields(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 11)
	for e := 0; e < 100; e++ {
		if err := s.Step(0.5); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Probe(100, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Alive != s.Alive() || snap.Event != 100 {
		t.Fatalf("snapshot identity: %+v", snap)
	}
	if snap.MeanDegree <= 0 || snap.MaxDegree <= 0 {
		t.Fatalf("degenerate degrees: %+v", snap)
	}
	if snap.GiantFrac <= 0 || snap.GiantFrac > 1 {
		t.Fatalf("giant fraction %v", snap.GiantFrac)
	}
	if snap.Gamma <= 0 {
		t.Fatalf("exponent fit failed: %+v", snap)
	}
	if snap.NFHits < 1 {
		t.Fatalf("NF hits %v", snap.NFHits)
	}
	if snap.MessagesPerEvent <= 0 {
		t.Fatalf("messages per event %v", snap.MessagesPerEvent)
	}
}

func TestRunTraceCadence(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 12)
	trace, err := s.Run(100, 0.5, 25, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 4 {
		t.Fatalf("want 4 snapshots at every-25 cadence, got %d", len(trace))
	}
	for i, snap := range trace {
		if want := (i + 1) * 25; snap.Event != want {
			t.Errorf("snapshot %d at event %d, want %d", i, snap.Event, want)
		}
	}
}

func TestRunNegativeEvents(t *testing.T) {
	t.Parallel()
	s := mustSim(t, baseCfg(), 13)
	if _, err := s.Run(-1, 0.5, 10, 0, 0); err == nil {
		t.Fatal("negative events should fail")
	}
}

func TestRepairKeepsOverlayConnectedUnderHeavyChurn(t *testing.T) {
	t.Parallel()
	cfg := baseCfg()
	cfg.KC = 10
	s := mustSim(t, cfg, 14)
	// Balanced churn with repair: the giant component should retain the
	// overwhelming majority of peers.
	trace, err := s.Run(800, 0.5, 800, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := trace[len(trace)-1]
	if last.GiantFrac < 0.95 {
		t.Fatalf("repair should hold the overlay together: giant %.2f", last.GiantFrac)
	}
}

func TestUniformJoinFlattensDegrees(t *testing.T) {
	t.Parallel()
	// Grow two overlays purely by joins; the preferential one must end
	// with a larger maximum degree than the uniform one.
	pref := baseCfg()
	pref.Repair = NoRepair
	uni := pref
	uni.Join = JoinUniform

	sp := mustSim(t, pref, 15)
	su := mustSim(t, uni, 15)
	for e := 0; e < 700; e++ {
		if err := sp.Step(1); err != nil {
			t.Fatal(err)
		}
		if err := su.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	gp, _ := sp.AliveGraph()
	gu, _ := su.AliveGraph()
	if gp.MaxDegree() <= gu.MaxDegree() {
		t.Fatalf("preferential max degree %d should exceed uniform %d",
			gp.MaxDegree(), gu.MaxDegree())
	}
}

func TestSimulatorDeterministicWithSeed(t *testing.T) {
	t.Parallel()
	run := func() (int, Stats) {
		s := mustSim(t, baseCfg(), 99)
		for e := 0; e < 200; e++ {
			if err := s.Step(0.5); err != nil {
				t.Fatal(err)
			}
		}
		return s.Alive(), s.Stats()
	}
	a1, st1 := run()
	a2, st2 := run()
	if a1 != a2 || st1 != st2 {
		t.Fatalf("same seed diverged: (%d,%+v) vs (%d,%+v)", a1, st1, a2, st2)
	}
}

// TestChurnInvariants property-checks structural invariants across random
// churn mixes: alive accounting matches the graph, dead nodes hold no
// edges, and the cutoff is never violated.
func TestChurnInvariants(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, pRaw uint8, kcPick bool) bool {
		cfg := baseCfg()
		cfg.InitialN = 80
		if kcPick {
			cfg.KC = 8
		}
		s, err := New(cfg, xrand.New(seed))
		if err != nil {
			return false
		}
		p := float64(pRaw) / 255
		for e := 0; e < 150; e++ {
			if err := s.Step(p); err != nil {
				return false
			}
			if s.Alive() == 0 {
				break
			}
		}
		count := 0
		for v := 0; v < s.g.N(); v++ {
			if s.alive[v] {
				count++
				if s.g.Degree(v) > s.cutoff() {
					return false
				}
			} else if s.g.Degree(v) != 0 {
				return false
			}
		}
		return count == s.Alive()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestJoinRuleAndRepairStrings(t *testing.T) {
	t.Parallel()
	if JoinPreferential.String() != "preferential" || JoinUniform.String() != "uniform" {
		t.Error("join rule names")
	}
	if JoinRule(9).String() != "joinrule(9)" {
		t.Error("unknown join rule name")
	}
	if NoRepair.String() != "no-repair" || ReconnectRepair.String() != "reconnect" {
		t.Error("repair names")
	}
	if RepairPolicy(9).String() != "repair(9)" {
		t.Error("unknown repair name")
	}
}

// TestDegreeHistogramTracksMaxDegree pins the kMax pickTarget draws
// against: after every event of a long mixed run (both repair policies,
// with and without a cutoff) the histogram's maximum equals a full
// Graph.MaxDegree scan, and the histogram counts every node once.
func TestDegreeHistogramTracksMaxDegree(t *testing.T) {
	t.Parallel()
	for i, cfg := range []Config{
		baseCfg(),
		{InitialN: 120, M: 3, KC: gen.NoCutoff, Join: JoinPreferential, Repair: NoRepair},
		{InitialN: 80, M: 1, KC: 5, Join: JoinUniform, Repair: ReconnectRepair},
	} {
		s := mustSim(t, cfg, uint64(40+i))
		for e := 0; e < 1500; e++ {
			if err := s.Step(0.55); err != nil {
				t.Fatal(err)
			}
			if want := s.g.MaxDegree(); s.kMax != want {
				t.Fatalf("cfg %d event %d: kMax %d, Graph.MaxDegree %d", i, e, s.kMax, want)
			}
		}
		nodes := 0
		for _, c := range s.degrees {
			nodes += c
		}
		if nodes != s.g.N() {
			t.Fatalf("cfg %d: histogram holds %d nodes, graph %d", i, nodes, s.g.N())
		}
	}
}
