// Command analyze prints a full report for a topology: size, degree
// statistics, power-law fit with KS goodness-of-fit, clustering,
// assortativity, k-core structure, path lengths, rich-club and percolation
// structure, a quick robustness probe, and search efficiency (mean hits and
// messages per TTL for FL, NF and the NF-budget RW, paper §V). It reads an
// edge list (from topogen or any tool emitting the standard format) or
// generates a PA topology inline.
//
// Usage:
//
//	topogen -model dapa -n 10000 -o overlay.edges
//	analyze -in overlay.edges
//	analyze -n 10000 -m 2 -kc 40          # inline PA
//	analyze -in overlay.edges -ks-trials 0 -robust=false  # skip the slow parts
//	analyze journal results/fig9.journal  # inspect an experiment journal
//
// The "journal" subcommand dumps an experiment journal's header, record
// inventory, completion markers, and torn-tail diagnostics read-only —
// the post-mortem for interrupted local runs and distributed coordinator
// sessions (see EXPERIMENTS.md "Distributed runs").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"scalefree"
	"scalefree/internal/stats"
)

func main() {
	// -h prints the usage and exits 0.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// Subcommand dispatch before flag parsing: "analyze journal <file>"
	// inspects experiment journals instead of topologies.
	if len(args) > 0 && args[0] == "journal" {
		return runJournal(args[1:], out)
	}
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "edge-list file (empty: generate PA inline)")
		n        = fs.Int("n", 10000, "nodes for inline PA generation")
		m        = fs.Int("m", 2, "stubs for inline PA generation")
		kc       = fs.Int("kc", 0, "hard cutoff for inline PA generation")
		seed     = fs.Uint64("seed", 1, "RNG seed")
		robust   = fs.Bool("robust", true, "run the robustness probe (slower)")
		ksTrials = fs.Int("ks-trials", 50, "bootstrap trials for the power-law fit (0 = skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ksTrials < 0 {
		return fmt.Errorf("ks-trials %d must be >= 0 (0 = skip)", *ksTrials)
	}

	// Every section, the robustness probe included, reads one snapshot.
	f, err := load(*in, *n, *m, *kc, *seed)
	if err != nil {
		return err
	}
	if f.N() == 0 {
		return fmt.Errorf("in %s: the edge list has no nodes", *in)
	}
	rng := scalefree.NewRNG(*seed + 1)

	fmt.Fprintln(out, "== size ==")
	mean := float64(f.TotalDegree()) / float64(f.N())
	fmt.Fprintf(out, "nodes=%d edges=%d degree(min/mean/max)=%d/%.2f/%d\n",
		f.N(), f.M(), f.MinDegree(), mean, f.MaxDegree())
	giant := f.GiantComponent()
	fmt.Fprintf(out, "connected=%v giant=%d (%.1f%%) components=%d\n",
		f.IsConnected(), len(giant), 100*float64(len(giant))/float64(f.N()),
		len(f.ConnectedComponents()))

	fmt.Fprintln(out, "\n== degree distribution ==")
	d := scalefree.DegreeDistribution(f)
	if fit, err := scalefree.FitDegreeExponent(d, 2, 0); err == nil {
		fmt.Fprintf(out, "power-law fit (log-binned LS): gamma=%.3f ± %.3f over %d bins\n",
			fit.Gamma, fit.StdErr, fit.Points)
		if ks, err := stats.KSDistance(d, fit.Gamma, 2); err == nil {
			fmt.Fprintf(out, "KS distance to fitted model: D=%.4f\n", ks)
			if *ksTrials > 0 {
				score, err := stats.KSBootstrap(ks, fit.Gamma, 2, f.MaxDegree(), f.N(), *ksTrials, rng)
				if err == nil {
					verdict := "plausible"
					if score < 0.1 {
						verdict = "rejected (expected under hard cutoffs: the spike at kc breaks pure power-law form)"
					}
					fmt.Fprintf(out, "bootstrap score: %.2f -> power law %s\n", score, verdict)
				}
			}
		}
	} else {
		fmt.Fprintf(out, "power-law fit unavailable: %v\n", err)
	}
	if seq := f.DegreeSequence(); len(seq) > 0 {
		if fit, err := stats.FitPowerLawMLE(seq, 6); err == nil {
			fmt.Fprintf(out, "tail MLE (k>=6): gamma=%.3f ± %.3f over %d nodes\n", fit.Gamma, fit.StdErr, fit.Points)
		}
	}

	fmt.Fprintf(out, "load fairness: Gini=%.3f, top-1%% of peers hold %.1f%% of links\n",
		scalefree.DegreeGini(f), 100*scalefree.TopLoadShare(f, 0.01))

	fmt.Fprintln(out, "\n== structure ==")
	fmt.Fprintf(out, "global clustering (transitivity): %.4f\n", scalefree.GlobalClustering(f))
	if r, err := scalefree.DegreeAssortativity(f); err == nil {
		fmt.Fprintf(out, "degree assortativity: %+.4f\n", r)
	}
	fmt.Fprintf(out, "max core (degeneracy): %d; 2-core covers %d nodes\n", f.MaxCore(), len(f.KCore(2)))
	ps := f.SamplePathStats(min(60, f.N()), rng)
	fmt.Fprintf(out, "mean distance: %.2f (sampled); diameter >= %d\n",
		ps.MeanDistance, f.EstimateDiameter(4, rng))
	if ed, err := scalefree.EffectiveDiameter(f, 0.9, min(64, f.N()), rng); err == nil {
		fmt.Fprintf(out, "effective diameter (90%%): %d\n", ed)
	}
	if rc := scalefree.RichClub(f); len(rc) > 0 {
		deepest := rc[len(rc)-1]
		fmt.Fprintf(out, "rich club: deepest club at k>%d (%d nodes, phi=%.3f)\n",
			deepest.K, deepest.Nodes, deepest.Phi)
	}

	if *robust {
		fmt.Fprintln(out, "\n== robustness (20% removal) ==")
		for _, strat := range []scalefree.RemovalStrategy{scalefree.RemoveRandom, scalefree.RemoveHighestDegree} {
			pts, err := scalefree.Robustness(f, strat, 0.05, 0.2, rng)
			if err != nil {
				return err
			}
			last := pts[len(pts)-1]
			fmt.Fprintf(out, "%-16s giant %.1f%% -> %.1f%%\n", strat, 100*pts[0].GiantFrac, 100*last.GiantFrac)
		}
		if pts, err := scalefree.SitePercolation(f, 10, 2, rng); err == nil {
			fmt.Fprintf(out, "site percolation: giant reaches 25%% of N at occupation p≈%.2f\n",
				scalefree.PercolationThreshold(pts, 0.25))
		}
	}
	// The search section draws from its own stream, so the sections above
	// print the same bytes with or without it.
	return searchReport(out, f, scalefree.NewRNG(*seed+2))
}

// searchTTL is the paper's NF TTL range; searchSources random sources
// are averaged per algorithm.
const searchTTL, searchSources = 10, 100

// searchReport prints mean hits and messages per TTL for flooding,
// normalized flooding and the random walk on NF's message budget, each
// averaged over searchSources sources drawn from rng (FL's, then NF's,
// then RW's). NF fans out to the topology's minimum degree, at least 1:
// m for an inline PA.
func searchReport(out io.Writer, f *scalefree.FrozenTopology, rng *scalefree.RNG) error {
	kMin := max(f.MinDegree(), 1)
	scratch := scalefree.NewSearchScratch(f.N())
	var hits, msgs [3][searchTTL + 1]float64
	for a := range hits {
		for range searchSources {
			src := rng.Intn(f.N())
			var res scalefree.SearchResult
			var err error
			switch a {
			case 0:
				res, err = scratch.Flood(f, src, searchTTL)
			case 1:
				res, err = scratch.NormalizedFlood(f, src, searchTTL, kMin, rng)
			case 2:
				res, _, err = scratch.RandomWalkWithNFBudget(f, src, searchTTL, kMin, rng)
			}
			if err != nil {
				return err
			}
			for t := 1; t <= searchTTL; t++ {
				hits[a][t] += float64(res.HitsAt(t))
				msgs[a][t] += float64(res.MessagesAt(t))
			}
		}
	}

	fmt.Fprintln(out, "\n== search ==")
	fmt.Fprintf(out, "%d sources, kmin=%d; rw walks NF's message budget\n", searchSources, kMin)
	tw := tabwriter.NewWriter(out, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tau\tfl hits\tfl msgs\tnf hits\tnf msgs\trw hits\trw msgs")
	for t := 1; t <= searchTTL; t++ {
		fmt.Fprintf(tw, "%d", t)
		for a := range hits {
			fmt.Fprintf(tw, "\t%.1f\t%.1f", hits[a][t]/searchSources, msgs[a][t]/searchSources)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func load(path string, n, m, kc int, seed uint64) (*scalefree.FrozenTopology, error) {
	if path == "" {
		f, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: n, M: m, KC: kc}, scalefree.NewRNG(seed))
		return f, err
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := file.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "analyze: close:", cerr)
		}
	}()
	return scalefree.ReadEdgeList(file)
}
