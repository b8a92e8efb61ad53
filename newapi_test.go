package scalefree

// Facade tests for the extension APIs added on top of the paper's core:
// baseline search strategies, the content/replication layer, the churn
// laboratory, and structural metrics.

import (
	"strings"
	"testing"
)

func TestPublicAPISearchStrategies(t *testing.T) {
	t.Parallel()
	rng := NewRNG(1)
	f, _, err := GeneratePA(PAConfig{N: 800, M: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearchScratch(f.N())
	hd, err := s.HighDegreeWalk(f, 0, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hd.HitsAt(100) < 2 {
		t.Errorf("HDS walk covered %d nodes", hd.HitsAt(100))
	}
	pf, err := s.ProbabilisticFlood(f, 0, 5, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pf.HitsAt(5) < 1 || pf.HitsAt(5) > f.N() {
		t.Errorf("probabilistic flood hits %d out of range", pf.HitsAt(5))
	}
	hy, err := s.HybridSearch(f, 0, 2, 4, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(hy.Hits) != 2+50+1 {
		t.Errorf("hybrid axis length %d", len(hy.Hits))
	}
}

func TestPublicAPISearchScratch(t *testing.T) {
	t.Parallel()
	rng := NewRNG(2)
	f, _, err := GeneratePA(PAConfig{N: 800, M: 2, KC: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearchScratch(f.N())
	fresh, err := Flood(f, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := s.Flood(f, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.HitsAt(6) != reused.HitsAt(6) {
		t.Fatalf("scratch flood hits %d, fresh flood hits %d", reused.HitsAt(6), fresh.HitsAt(6))
	}
	// Reuse across calls is the point; the second search must stand alone.
	if _, err := s.NormalizedFlood(f, 9, 6, 2, rng); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIContent(t *testing.T) {
	t.Parallel()
	rng := NewRNG(2)
	f, _, err := GeneratePA(PAConfig{N: 1000, M: 2, KC: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewCatalog(50, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ReplicationStrategy{ReplicateUniform, ReplicateProportional, ReplicateSquareRoot} {
		p, err := Replicate(cat, f.N(), 500, s, rng)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		ess, err := ExpectedSearchSize(f, p, cat, 100, 20000, rng)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if ess.SuccessRate() < 0.9 {
			t.Errorf("%s: success %v", s, ess.SuccessRate())
		}
		fl, err := FloodQuerySuccess(f, p, cat, 100, 4, rng)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if fl.SuccessRate() <= 0 {
			t.Errorf("%s: flood success %v", s, fl.SuccessRate())
		}
	}
}

func TestPublicAPIChurn(t *testing.T) {
	t.Parallel()
	sim, err := NewChurnSimulator(ChurnConfig{
		InitialN: 200, M: 2, KC: 20,
		Join:     ChurnJoinPreferential,
		Repair:   ChurnReconnectRepair,
		Graceful: true,
	}, NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Run(200, 0.5, 50, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 4 {
		t.Fatalf("trace %d snapshots", len(trace))
	}
	last := trace[len(trace)-1]
	if last.GiantFrac < 0.9 {
		t.Errorf("repaired overlay giant %v", last.GiantFrac)
	}
	if sim.Stats().Joins+sim.Stats().Leaves != 200 {
		t.Errorf("events %+v", sim.Stats())
	}
}

func TestPublicAPIStructureMetrics(t *testing.T) {
	t.Parallel()
	rng := NewRNG(5)
	f, _, err := GeneratePA(PAConfig{N: 1200, M: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rc := RichClub(f)
	if len(rc) == 0 || rc[0].K != 0 {
		t.Fatalf("rich club %v", rc)
	}
	ed, err := EffectiveDiameter(f, 0.9, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ed < 2 || ed > 20 {
		t.Errorf("effective diameter %d implausible for PA N=1200", ed)
	}
	pts, err := SitePercolation(f, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	th := PercolationThreshold(pts, 0.25)
	if th <= 0 || th > 1 {
		t.Errorf("percolation threshold %v", th)
	}
}

func TestStrategyNamesStable(t *testing.T) {
	t.Parallel()
	// The replication strategy names appear in reports and CSV output;
	// renames are breaking.
	names := []string{
		ReplicateUniform.String(),
		ReplicateProportional.String(),
		ReplicateSquareRoot.String(),
	}
	want := "uniform,proportional,square-root"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("strategy names %q, want %q", got, want)
	}
}
