// Command searchsim runs search-efficiency experiments on a topology: it
// loads an edge list (or generates a PA topology inline) and prints mean
// hits and messages per TTL for flooding, normalized flooding, and the
// NF-budget random walk, averaged over random sources.
//
// Usage:
//
//	topogen -model pa -n 10000 -m 2 -kc 40 -o pa.edges
//	searchsim -in pa.edges -alg nf -kmin 2 -ttl 10 -sources 100
//	searchsim -n 10000 -m 2 -kc 40 -alg all -ttl 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"scalefree"
)

func main() {
	// -h prints the usage and exits 0.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "searchsim:", err)
		os.Exit(1)
	}
}

// run parses args and prints the per-TTL table to out. Every flag is
// checked before the topology is loaded or any search runs.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("searchsim", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "edge-list file (empty: generate PA inline)")
		n       = fs.Int("n", 10000, "nodes for inline PA generation")
		m       = fs.Int("m", 2, "stubs for inline PA generation")
		kc      = fs.Int("kc", 0, "hard cutoff for inline PA generation")
		alg     = fs.String("alg", "all", "algorithm: fl|nf|rw|all")
		kmin    = fs.Int("kmin", 0, "NF fan-out (default m)")
		ttl     = fs.Int("ttl", 10, "maximum TTL")
		sources = fs.Int("sources", 100, "random sources averaged")
		seed    = fs.Uint64("seed", 1, "RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	algs := []string{"fl", "nf", "rw"}
	switch *alg {
	case "all":
	case "fl", "nf", "rw":
		algs = []string{*alg}
	default:
		return fmt.Errorf("unknown algorithm %q (want fl, nf, rw or all)", *alg)
	}
	if *ttl < 1 {
		return fmt.Errorf("ttl %d must be >= 1", *ttl)
	}
	if *sources < 1 {
		return fmt.Errorf("sources %d must be >= 1", *sources)
	}
	if *kmin < 0 {
		return fmt.Errorf("kmin %d must be >= 0 (0 = m)", *kmin)
	}
	if *kmin == 0 {
		*kmin = *m
	}

	// The whole workload sweeps one static topology: every search runs
	// allocation-free on its CSR snapshot.
	f, err := load(*in, *n, *m, *kc, *seed)
	if err != nil {
		return err
	}
	if f.N() == 0 {
		return fmt.Errorf("in %s: the edge list has no nodes", *in)
	}
	rng := scalefree.NewRNG(*seed + 1)
	scratch := scalefree.NewSearchScratch(f.N())
	type row struct {
		hits, msgs []float64
	}
	results := map[string]row{}
	for _, a := range algs {
		hits := make([]float64, *ttl+1)
		msgs := make([]float64, *ttl+1)
		for s := 0; s < *sources; s++ {
			src := rng.Intn(f.N())
			var res scalefree.SearchResult
			switch a {
			case "fl":
				res, err = scratch.Flood(f, src, *ttl)
			case "nf":
				res, err = scratch.NormalizedFlood(f, src, *ttl, *kmin, rng)
			case "rw":
				res, _, err = scratch.RandomWalkWithNFBudget(f, src, *ttl, *kmin, rng)
			}
			if err != nil {
				return err
			}
			for t := 0; t <= *ttl; t++ {
				hits[t] += float64(res.HitsAt(t))
				msgs[t] += float64(res.MessagesAt(t))
			}
		}
		for t := range hits {
			hits[t] /= float64(*sources)
			msgs[t] /= float64(*sources)
		}
		results[a] = row{hits, msgs}
	}

	fmt.Fprintf(out, "topology: nodes=%d edges=%d maxdeg=%d; %d sources, kmin=%d\n",
		f.N(), f.M(), f.MaxDegree(), *sources, *kmin)
	tw := tabwriter.NewWriter(out, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "tau")
	for _, a := range algs {
		fmt.Fprintf(tw, "\t%s hits\t%s msgs", a, a)
	}
	fmt.Fprintln(tw)
	for t := 1; t <= *ttl; t++ {
		fmt.Fprintf(tw, "%d", t)
		for _, a := range algs {
			fmt.Fprintf(tw, "\t%.1f\t%.1f", results[a].hits[t], results[a].msgs[t])
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
			fmt.Fprintln(os.Stderr, "searchsim: close:", cerr)
		}
	}()
	return scalefree.ReadEdgeList(file)
}
