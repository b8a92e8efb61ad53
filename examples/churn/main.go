// Churn: the paper's future-work scenario (§VI) — peers continuously join
// and leave while the overlay tries to keep its scale-free shape under a
// hard cutoff. We run balanced churn on the deterministic graph-level
// laboratory and track connectivity, degree exponent, search reach and
// maintenance messaging over time, with and without repair.
package main

import (
	"fmt"
	"os"

	"scalefree"
)

func main() {
	if err := runSimulator(); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

// runSimulator drives the deterministic internal/churn laboratory:
// balanced churn on a kc-capped PA overlay, repair vs no repair, with
// messaging cost per event — exactly the tradeoff §VI poses.
func runSimulator() error {
	const (
		initialN = 2000
		events   = 4000
		pJoin    = 0.5
	)
	for _, repair := range []scalefree.ChurnRepairPolicy{scalefree.ChurnReconnectRepair, scalefree.ChurnNoRepair} {
		sim, err := scalefree.NewChurnSimulator(scalefree.ChurnConfig{
			InitialN: initialN, M: 2, KC: 10,
			Join:     scalefree.ChurnJoinPreferential,
			Repair:   repair,
			Graceful: true,
		}, scalefree.NewRNG(71))
		if err != nil {
			return err
		}
		trace, err := sim.Run(events, pJoin, events/5, 10, 4)
		if err != nil {
			return err
		}
		fmt.Printf("\npolicy %-10s  event | alive | giant%% | gamma | NF hits@4 | msgs/event\n", repair)
		for _, snap := range trace {
			fmt.Printf("%18s %6d | %5d | %5.1f%% | %5.2f | %9.0f | %10.1f\n",
				"", snap.Event, snap.Alive, 100*snap.GiantFrac, snap.Gamma, snap.NFHits, snap.MessagesPerEvent)
		}
	}
	fmt.Println("\nrepair holds the giant component near 100% for a modest per-event message cost;")
	fmt.Println("without repair the overlay frays as departures strand low-degree peers.")
	return nil
}
