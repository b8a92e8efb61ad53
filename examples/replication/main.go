// Replication: the content layer the paper's searches ultimately serve.
// It builds a PA overlay (with the paper's recommended m=2 and a hard
// cutoff), fills it with a Zipf-popular catalog, and compares the three
// Cohen–Shenker replica-allocation strategies (uniform, proportional,
// square-root; paper refs [22], [23]) on two measurements:
//
//   - expected search size: random-walk probes until the first replica
//     (square-root allocation should win — Cohen & Shenker's theorem);
//   - flooding success rate at small TTLs (the Gnutella deployment view).
//
// Run: go run ./examples/replication
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"scalefree"
)

const (
	nodes    = 5000
	m        = 2
	hardKC   = 40
	items    = 200
	alpha    = 1.1 // Zipf exponent; Gnutella measurements are ~0.6-1.0
	budget   = 2 * nodes
	queries  = 1000
	maxSteps = 50000
	seed     = 2007
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replication:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := scalefree.NewRNG(seed)
	f, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: nodes, M: m, KC: hardKC}, rng)
	if err != nil {
		return err
	}
	cat, err := scalefree.NewCatalog(items, alpha)
	if err != nil {
		return err
	}
	fmt.Printf("overlay: PA N=%d m=%d kc=%d; catalog: %d items, Zipf alpha=%.1f, budget %d copies\n\n",
		nodes, m, hardKC, items, alpha, budget)

	strategies := []scalefree.ReplicationStrategy{
		scalefree.ReplicateUniform,
		scalefree.ReplicateProportional,
		scalefree.ReplicateSquareRoot,
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\thead copies\ttail copies\tESS (walk probes)\twalk success\tflood hit@TTL3\tflood msgs")
	for _, s := range strategies {
		p, err := scalefree.Replicate(cat, f.N(), budget, s, scalefree.NewRNG(seed+1))
		if err != nil {
			return err
		}
		ess, err := scalefree.ExpectedSearchSize(f, p, cat, queries, maxSteps, scalefree.NewRNG(seed+2))
		if err != nil {
			return err
		}
		fl, err := scalefree.FloodQuerySuccess(f, p, cat, queries, 3, scalefree.NewRNG(seed+3))
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.1f%%\t%.1f%%\t%.0f\n",
			s, p.Replicas(0), p.Replicas(scalefree.Item(items-1)),
			ess.MeanSteps, 100*ess.SuccessRate(),
			100*fl.SuccessRate(), fl.MeanMessages)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - square-root allocation should show the lowest ESS (Cohen & Shenker);")
	fmt.Println("  - proportional wins on flood success at tiny TTL (popular items are everywhere)")
	fmt.Println("    but strands the catalog tail — its ESS tail cost shows in the walk column;")
	fmt.Println("  - uniform is the fairness baseline.")
	return nil
}
