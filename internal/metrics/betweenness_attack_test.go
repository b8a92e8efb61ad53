package metrics

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/xrand"
)

func TestBetweennessAttackAtLeastAsDamaging(t *testing.T) {
	t.Parallel()
	// Betweenness targeting should hurt at least as much as random
	// failures and comparably to degree targeting on a PA network.
	g, _, err := gen.PA(gen.PAConfig{N: 1500, M: 2}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	giantAfter := func(strategy RemovalStrategy) float64 {
		pts, err := Robustness(f, strategy, 0.05, 0.2, xrand.New(2))
		if err != nil {
			t.Fatal(err)
		}
		return pts[len(pts)-1].GiantFrac
	}
	random := giantAfter(RemoveRandom)
	betweenness := giantAfter(RemoveHighestBetweenness)
	if betweenness >= random {
		t.Fatalf("betweenness attack (%.2f) should be more damaging than random failures (%.2f)",
			betweenness, random)
	}
}

func TestBetweennessAttackOnPathCutsMiddle(t *testing.T) {
	t.Parallel()
	// On a path, the most-between node is the middle; removing it halves
	// the giant immediately.
	f := pathG(t, 21).Freeze()
	pts, err := Robustness(f, RemoveHighestBetweenness, 0.04, 0.05, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	if last.GiantFrac > 0.55 {
		t.Fatalf("middle cut should halve the path: giant %.2f", last.GiantFrac)
	}
}

// TestRobustnessWithZeroConfigMatchesRobustness pins that the config
// surface added for the estimator leaves the legacy entry point
// bit-identical (same RNG draws, same points) for every strategy, and
// that estimator steps come back exactly for the betweenness attack: one
// per measurement step.
func TestRobustnessWithZeroConfigMatchesRobustness(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 800, M: 2}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	for _, strat := range []RemovalStrategy{RemoveRandom, RemoveHighestDegree, RemoveHighestBetweenness} {
		want, err := Robustness(f, strat, 0.05, 0.2, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		got, steps, err := RobustnessWith(f, RobustnessConfig{
			Strategy: strat, StepFrac: 0.05, MaxFrac: 0.2,
		}, xrand.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if strat == RemoveHighestBetweenness {
			if len(steps) != len(got)-1 {
				t.Fatalf("%v: %d estimator steps for %d points", strat, len(steps), len(got))
			}
		} else if steps != nil {
			t.Fatalf("%v: returned estimator steps", strat)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d points != %d", strat, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v point %d: %+v != %+v", strat, i, got[i], want[i])
			}
		}
	}
}

// TestRobustnessBetweennessPivotsParameter: the pivot budget is a real
// knob — an exact budget (>= N) prices every step with exact Brandes and
// so draws no pivots, and small budgets still produce a damaging attack.
func TestRobustnessBetweennessPivotsParameter(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 400, M: 2}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	exactA, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 0.15,
		BetweennessPivots: f.N(),
	}, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// Exact mode consumes no pivot draws, so a different seed must give
	// the identical trajectory.
	exactB, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 0.15,
		BetweennessPivots: f.N(),
	}, xrand.New(777))
	if err != nil {
		t.Fatal(err)
	}
	for i := range exactA {
		if exactA[i] != exactB[i] {
			t.Fatalf("exact-pivot attack not seed-independent at point %d", i)
		}
	}
	small, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 0.15,
		BetweennessPivots: 16,
	}, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if small[len(small)-1].GiantFrac >= 0.9 {
		t.Fatalf("16-pivot attack barely damaged the network: %+v", small[len(small)-1])
	}
}

// TestRobustnessBatchedBetweenness: the batched estimator must (a) report
// one accounting step per measurement step, (b) damage the network
// comparably to the exact-score attack, and (c) be deterministic.
func TestRobustnessBatchedBetweenness(t *testing.T) {
	t.Parallel()
	g, _, err := gen.PA(gen.PAConfig{N: 1000, M: 2}, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	cfg := RobustnessConfig{
		Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 0.3,
		BetweennessPivots: 64,
	}
	pts, steps, err := RobustnessWith(f, cfg, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(pts)-1 {
		t.Fatalf("%d estimator steps for %d measurement points", len(steps), len(pts))
	}
	for i, s := range steps {
		if s.MeanBC <= 0 || s.MeanSE < 0 {
			t.Fatalf("step %d: degenerate accounting %+v", i, s)
		}
		if s.RemovedFrac <= 0 || s.RemovedFrac > cfg.MaxFrac+cfg.StepFrac {
			t.Fatalf("step %d: removed fraction %v out of range", i, s.RemovedFrac)
		}
	}
	// Agreement gate for the estimator proper: with the batch granularity
	// held fixed, pivot-sampled scores must reproduce the trajectory of
	// exact (pivots >= N) scores. The batching itself is the attack's
	// definition, not part of what the estimator approximates.
	exact, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 0.3,
		BetweennessPivots: f.N(),
	}, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	sampled, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 0.3,
		BetweennessPivots: 256,
	}, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	// Mid-trajectory points near the percolation threshold are sensitive
	// to near-tie ordering, so the gate is looser there and tight at the
	// endpoint.
	for i := range sampled {
		d := sampled[i].GiantFrac - exact[i].GiantFrac
		if d < -0.15 || d > 0.15 {
			t.Fatalf("batched sampled attack diverged from batched exact at point %d: %.3f vs %.3f",
				i, sampled[i].GiantFrac, exact[i].GiantFrac)
		}
	}
	if d := sampled[len(sampled)-1].GiantFrac - exact[len(exact)-1].GiantFrac; d < -0.05 || d > 0.05 {
		t.Fatalf("batched sampled endpoint %.3f != batched exact %.3f",
			sampled[len(sampled)-1].GiantFrac, exact[len(exact)-1].GiantFrac)
	}
	// And the estimated attack must remain a real attack: far more
	// damaging than random failures at the same removal fraction.
	rnd, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: RemoveRandom, StepFrac: 0.05, MaxFrac: 0.3,
	}, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if pts[len(pts)-1].GiantFrac >= rnd[len(rnd)-1].GiantFrac {
		t.Fatalf("batched attack (%.3f) no more damaging than random failure (%.3f)",
			pts[len(pts)-1].GiantFrac, rnd[len(rnd)-1].GiantFrac)
	}
	pts2, steps2, err := RobustnessWith(f, cfg, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i] != pts2[i] {
			t.Fatal("batched attack not deterministic")
		}
	}
	for i := range steps {
		if steps[i] != steps2[i] {
			t.Fatal("estimator accounting not deterministic")
		}
	}
}
