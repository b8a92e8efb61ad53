// Quickstart: generate a scale-free overlay with a hard cutoff, inspect
// its degree distribution, and compare the three search algorithms —
// the library's core loop in ~60 lines.
package main

import (
	"fmt"
	"os"

	"scalefree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := scalefree.NewRNG(42)

	// 1. Build a 10,000-peer overlay by preferential attachment where no
	//    peer accepts more than 40 links (the paper's hard cutoff).
	//    The generator returns a read-only snapshot, and every read below
	//    runs on it.
	f, genStats, err := scalefree.GeneratePA(scalefree.PAConfig{N: 10_000, M: 2, KC: 40}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %d peers, %d links, max degree %d (cutoff 40), fallback stubs %d\n",
		f.N(), f.M(), f.MaxDegree(), genStats.Fallbacks)

	// 2. The degree distribution is a power law P(k) ~ k^-gamma with a
	//    spike at the cutoff.
	fit, err := scalefree.FitDegreeExponent(scalefree.DegreeDistribution(f), 2, 0)
	if err != nil {
		return err
	}
	fmt.Printf("degree exponent: gamma = %.2f ± %.2f (natural cutoff would be %.0f)\n",
		fit.Gamma, fit.StdErr, scalefree.NaturalCutoff(f.N(), 2, 3))

	// 3. Compare search efficiency from one source.
	const src, ttl, kMin = 0, 8, 2
	fl, err := scalefree.Flood(f, src, ttl)
	if err != nil {
		return err
	}
	nf, err := scalefree.NormalizedFlood(f, src, ttl, kMin, rng)
	if err != nil {
		return err
	}
	rw, _, err := scalefree.RandomWalkWithNFBudget(f, src, ttl, kMin, rng)
	if err != nil {
		return err
	}
	fmt.Println("\n tau |    FL hits (msgs)   |   NF hits (msgs)  |  RW hits (same budget)")
	for t := 2; t <= ttl; t += 2 {
		fmt.Printf("  %2d | %9d (%7d) | %7d (%6d) | %7d\n",
			t, fl.HitsAt(t), fl.MessagesAt(t), nf.HitsAt(t), nf.MessagesAt(t), rw.HitsAt(t))
	}
	fmt.Println("\nFL sweeps everything but floods the network; NF and RW trade coverage for scalable messaging.")
	return nil
}
