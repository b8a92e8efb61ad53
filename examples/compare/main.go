// Compare: the paper's headline comparison on one screen — all four
// topology construction mechanisms (PA, CM, HAPA, DAPA) crossed with all
// three search algorithms (FL, NF, RW), with and without a hard cutoff.
// It reproduces the qualitative findings of §V-B: hard cutoffs *help* NF
// and RW, m >= 2-3 erases the cutoff penalty for FL, and the local
// mechanisms track the CM optimum.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"scalefree"
)

const (
	nodes    = 4000
	m        = 2
	ttlFL    = 12
	ttlNF    = 8
	sources  = 40
	tauSub   = 10
	hardKC   = 10
	seedBase = 2007
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

type topology struct {
	name string
	gen  func(kc int, rng *scalefree.RNG) (*scalefree.FrozenTopology, error)
}

func run() error {
	topos := []topology{
		{"PA", func(kc int, rng *scalefree.RNG) (*scalefree.FrozenTopology, error) {
			f, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: nodes, M: m, KC: kc}, rng)
			return f, err
		}},
		{"CM", func(kc int, rng *scalefree.RNG) (*scalefree.FrozenTopology, error) {
			f, _, err := scalefree.GenerateCM(scalefree.CMConfig{N: nodes, M: m, KC: kc, Gamma: 2.6}, rng)
			return f, err
		}},
		{"HAPA", func(kc int, rng *scalefree.RNG) (*scalefree.FrozenTopology, error) {
			f, _, err := scalefree.GenerateHAPA(scalefree.HAPAConfig{N: nodes, M: m, KC: kc}, rng)
			return f, err
		}},
		{"DAPA", func(kc int, rng *scalefree.RNG) (*scalefree.FrozenTopology, error) {
			sub, _, err := scalefree.GenerateGRN(scalefree.GRNConfig{N: 2 * nodes, MeanDegree: 10}, rng)
			if err != nil {
				return nil, err
			}
			f, _, err := scalefree.GenerateDAPA(sub, scalefree.DAPAConfig{
				NOverlay: nodes, M: m, KC: kc, TauSub: tauSub,
			}, rng)
			return f, err
		}},
	}

	tw := tabwriter.NewWriter(os.Stdout, 6, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "topology\tcutoff\tgamma\tmaxdeg\tFL hits@%d\tNF hits@%d\tRW hits@%d\n", ttlFL, ttlNF, ttlNF)
	for ti, topo := range topos {
		for _, kc := range []int{scalefree.NoCutoff, hardKC} {
			rng := scalefree.NewRNG(uint64(seedBase + ti))
			f, err := topo.gen(kc, rng)
			if err != nil {
				return fmt.Errorf("%s kc=%d: %w", topo.name, kc, err)
			}
			fl, nf, rw, err := measure(f, rng)
			if err != nil {
				return err
			}
			gamma := "-"
			if fit, err := scalefree.FitDegreeExponent(scalefree.DegreeDistribution(f), 1, 0); err == nil {
				gamma = fmt.Sprintf("%.2f", fit.Gamma)
			}
			cut := "none"
			if kc != scalefree.NoCutoff {
				cut = fmt.Sprintf("%d", kc)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.0f\t%.1f\t%.1f\n",
				topo.name, cut, gamma, f.MaxDegree(), fl, nf, rw)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Println("\nReadings (paper §V-B): NF/RW rows improve — or hold — under the hard cutoff;")
	fmt.Println("FL loses little at m=2; HAPA/DAPA stay close to the CM optimum for NF and RW.")
	return nil
}

// measure averages FL/NF/RW hits over random sources on one frozen
// topology, swept with a reused scratch — the recommended pattern for
// many searches against a static overlay.
func measure(f *scalefree.FrozenTopology, rng *scalefree.RNG) (fl, nf, rw float64, err error) {
	scratch := scalefree.NewSearchScratch(f.N())
	for s := 0; s < sources; s++ {
		src := rng.Intn(f.N())
		flr, err := scratch.Flood(f, src, ttlFL)
		if err != nil {
			return 0, 0, 0, err
		}
		fl += float64(flr.HitsAt(ttlFL))
		nfr, err := scratch.NormalizedFlood(f, src, ttlNF, m, rng)
		if err != nil {
			return 0, 0, 0, err
		}
		nf += float64(nfr.HitsAt(ttlNF))
		rwr, _, err := scratch.RandomWalkWithNFBudget(f, src, ttlNF, m, rng)
		if err != nil {
			return 0, 0, 0, err
		}
		rw += float64(rwr.HitsAt(ttlNF))
	}
	n := float64(sources)
	return fl / n, nf / n, rw / n, nil
}
