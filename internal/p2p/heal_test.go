package p2p

import "testing"

// TestOverlayHealsAfterMassFailure is the acceptance test for overlay
// self-healing: grow an overlay, crash 20% of its peers without
// farewells, and require Heal to re-converge the survivors to one
// connected component, with the recovery metrics reported.
func TestOverlayHealsAfterMassFailure(t *testing.T) {
	t.Parallel()
	o, err := NewOverlay(OverlayConfig{
		M: 2, TauSub: 3, Seed: 2007, DiscoverWindow: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	const n = 40
	if err := o.Grow(n, nil); err != nil {
		t.Fatal(err)
	}

	// Crash every 5th peer (20%), preferring the early joiners — under
	// preferential attachment those carry the highest degrees, so this is
	// the harsh version of the failure model.
	addrs := o.Addrs()
	crashed := 0
	for i := 0; i < len(addrs); i += 5 {
		o.Remove(addrs[i], false)
		crashed++
	}
	if crashed != n/5 {
		t.Fatalf("crashed %d peers, want %d", crashed, n/5)
	}

	rep := o.Heal(30)
	if !rep.Recovered {
		t.Fatalf("overlay did not re-converge after %d rounds: coverage=%v repaired=%d",
			rep.Rounds, rep.Coverage, rep.Repaired)
	}
	if len(rep.Coverage) != rep.Rounds {
		t.Fatalf("coverage curve has %d points for %d rounds", len(rep.Coverage), rep.Rounds)
	}
	if last := rep.Coverage[len(rep.Coverage)-1]; last < 1 {
		t.Fatalf("final coverage %v < 1", last)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no time-to-reconnect recorded")
	}
	// Every surviving peer meets the paper's degree floor again or the
	// overlay is at least fully connected (tiny fringes can sit at M-1
	// only if a join partner refused; connectivity is the contract).
	g, _ := o.Snapshot()
	if len(g.GiantComponent()) != g.N() {
		t.Fatalf("snapshot disconnected: giant %d of %d", len(g.GiantComponent()), g.N())
	}
}

// TestOverlayHealsOverFaultyNetwork runs the same mass-failure recovery
// over a lossy transport: healing must tolerate injected drops.
func TestOverlayHealsOverFaultyNetwork(t *testing.T) {
	t.Parallel()
	fn := NewFaultyNetwork(NewInMemoryNetwork(), FaultConfig{Seed: 3, Drop: 0.05})
	o, err := NewOverlay(OverlayConfig{
		M: 2, TauSub: 3, Seed: 2007, DiscoverWindow: 40, Transport: fn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	if err := o.Grow(24, nil); err != nil {
		t.Fatal(err)
	}
	addrs := o.Addrs()
	for i := 0; i < len(addrs); i += 5 {
		o.Remove(addrs[i], false)
	}
	rep := o.Heal(40)
	if !rep.Recovered {
		t.Fatalf("overlay on lossy transport did not re-converge: coverage=%v", rep.Coverage)
	}
}
