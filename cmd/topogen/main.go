// Command topogen generates overlay topologies with any of the paper's
// mechanisms and writes them as edge lists (or Graphviz DOT with
// -format dot), printing a structural summary (degree statistics,
// power-law fit, connectivity).
//
// Usage:
//
//	topogen -model pa   -n 10000 -m 2 -kc 40 -seed 1 -o pa.edges
//	topogen -model hapa -n 400 -format dot -o hapa.dot   # render: sfdp -Tsvg
//	topogen -model cm   -n 10000 -m 1 -kc 40 -gamma 2.2
//	topogen -model hapa -n 10000 -m 3 -kc 50
//	topogen -model dapa -n 10000 -m 2 -kc 40 -tau 6 -nsub 20000
//	topogen -model grn  -n 20000 -kbar 10
//	topogen -model mesh -n 10000            (⌈√n⌉ × ⌈√n⌉ grid)
//	topogen -model er   -n 10000 -m 2       (m·n edges)
//	topogen -model ws   -n 10000 -m 2 -beta 0.1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"scalefree"
)

func main() {
	// -h prints the usage and exits 0.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// run parses args, generates the topology and writes it to -o (default
// out), printing the structural summary to stderr. Every flag is checked
// before -o is created, so a bad invocation leaves an existing file alone.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		model   = fs.String("model", "pa", "topology model: pa|cm|hapa|dapa|grn|mesh|er|ws")
		n       = fs.Int("n", 10000, "number of nodes (overlay size for dapa)")
		m       = fs.Int("m", 2, "stubs per joining node / minimum degree")
		kc      = fs.Int("kc", 0, "hard degree cutoff (0 = none)")
		gamma   = fs.Float64("gamma", 2.5, "degree exponent (cm)")
		tau     = fs.Int("tau", 6, "local TTL tau_sub (dapa)")
		nsub    = fs.Int("nsub", 0, "substrate size (dapa; default 2n)")
		kbar    = fs.Float64("kbar", 10, "mean degree (grn substrate)")
		beta    = fs.Float64("beta", 0.1, "rewiring probability (ws)")
		seed    = fs.Uint64("seed", 1, "RNG seed")
		outPath = fs.String("o", "", "output edge-list file (default stdout)")
		format  = fs.String("format", "edges", "output format: edges|dot (dot renders with graphviz)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "edges" && *format != "dot" {
		return fmt.Errorf("unknown format %q (want edges or dot)", *format)
	}

	f, err := generate(*model, *n, *m, *kc, *gamma, *tau, *nsub, *kbar, *beta, *seed)
	if err != nil {
		return err
	}

	w := out
	if *outPath != "" {
		file, cerr := os.Create(*outPath)
		if cerr != nil {
			return fmt.Errorf("create %s: %w", *outPath, cerr)
		}
		defer func() {
			if cerr := file.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = file
	}
	if *format == "dot" {
		err = f.WriteDOT(w, *model)
	} else {
		err = f.WriteEdgeList(w)
	}
	if err != nil {
		return err
	}
	printSummary(os.Stderr, f)
	return nil
}

func generate(model string, n, m, kc int, gamma float64, tau, nsub int, kbar, beta float64, seed uint64) (*scalefree.FrozenTopology, error) {
	rng := scalefree.NewRNG(seed)
	switch model {
	case "pa":
		f, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: n, M: m, KC: kc}, rng)
		return f, err
	case "cm":
		f, _, err := scalefree.GenerateCM(scalefree.CMConfig{N: n, M: m, KC: kc, Gamma: gamma}, rng)
		return f, err
	case "hapa":
		f, _, err := scalefree.GenerateHAPA(scalefree.HAPAConfig{N: n, M: m, KC: kc}, rng)
		return f, err
	case "dapa":
		if nsub <= 0 {
			nsub = 2 * n
		}
		sub, _, err := scalefree.GenerateGRN(scalefree.GRNConfig{N: nsub, MeanDegree: kbar}, rng)
		if err != nil {
			return nil, fmt.Errorf("substrate: %w", err)
		}
		f, _, err := scalefree.GenerateDAPA(sub, scalefree.DAPAConfig{
			NOverlay: n, M: m, KC: kc, TauSub: tau,
		}, rng)
		return f, err
	case "grn":
		f, _, err := scalefree.GenerateGRN(scalefree.GRNConfig{N: n, MeanDegree: kbar}, rng)
		return f, err
	case "mesh":
		side := int(math.Ceil(math.Sqrt(float64(n))))
		return scalefree.GenerateMesh(side, side)
	case "er":
		return scalefree.GenerateER(n, m*n, rng)
	case "ws":
		return scalefree.GenerateWattsStrogatz(n, m, beta, rng)
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}

func printSummary(w *os.File, f *scalefree.FrozenTopology) {
	mean := 0.0
	if f.N() > 0 {
		mean = float64(f.TotalDegree()) / float64(f.N())
	}
	fmt.Fprintf(w, "nodes=%d edges=%d degree(min/mean/max)=%d/%.2f/%d connected=%v giant=%d\n",
		f.N(), f.M(), f.MinDegree(), mean, f.MaxDegree(), f.IsConnected(), len(f.GiantComponent()))
	if fit, err := scalefree.FitDegreeExponent(scalefree.DegreeDistribution(f), 1, 0); err == nil {
		fmt.Fprintf(w, "power-law fit: gamma=%.2f ± %.2f (over %d log bins)\n", fit.Gamma, fit.StdErr, fit.Points)
	}
}
