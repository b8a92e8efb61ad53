// Command churnsim runs the graph-level churn laboratory (paper §VI
// future work): an overlay under a configurable arrival/departure process
// with a hard cutoff, printing periodic health snapshots and, optionally,
// a CSV trace.
//
// Usage:
//
//	churnsim -n 2000 -events 4000 -pjoin 0.5 -kc 10 -repair reconnect
//	churnsim -n 2000 -events 4000 -repair none -csv trace.csv
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"scalefree"
)

func main() {
	// -h prints the usage and exits 0.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "churnsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("churnsim", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 2000, "initial overlay size (PA, m stubs)")
		m       = fs.Int("m", 2, "stubs per joining peer / repair target")
		kc      = fs.Int("kc", 10, "hard degree cutoff (0 = none)")
		events  = fs.Int("events", 4000, "churn events to run")
		pJoin   = fs.Float64("pjoin", 0.5, "probability an event is a join (rest are leaves)")
		joinStr = fs.String("join", "preferential", "join rule: preferential|uniform")
		repair  = fs.String("repair", "reconnect", "repair policy: reconnect|none")
		crash   = fs.Bool("crash", false, "departures crash silently instead of announcing")
		probes  = fs.Int("probes", 8, "snapshots across the run")
		sources = fs.Int("sources", 10, "NF probe sources per snapshot (0 skips the NF probe)")
		ttl     = fs.Int("ttl", 4, "NF probe TTL")
		seed    = fs.Uint64("seed", 1, "RNG seed")
		csvPath = fs.String("csv", "", "write the snapshot trace as CSV to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*pJoin >= 0 && *pJoin <= 1) {
		return fmt.Errorf("pjoin %v must be in [0,1]", *pJoin)
	}
	if *events < 1 {
		return fmt.Errorf("events %d must be >= 1", *events)
	}
	if *probes < 1 {
		return fmt.Errorf("probes %d must be >= 1", *probes)
	}
	if *sources < 0 {
		return fmt.Errorf("sources %d must be >= 0", *sources)
	}
	if *ttl < 0 {
		return fmt.Errorf("ttl %d must be >= 0", *ttl)
	}

	var join scalefree.ChurnJoinRule
	switch *joinStr {
	case "preferential":
		join = scalefree.ChurnJoinPreferential
	case "uniform":
		join = scalefree.ChurnJoinUniform
	default:
		return fmt.Errorf("unknown join rule %q", *joinStr)
	}
	var policy scalefree.ChurnRepairPolicy
	switch *repair {
	case "reconnect":
		policy = scalefree.ChurnReconnectRepair
	case "none":
		policy = scalefree.ChurnNoRepair
	default:
		return fmt.Errorf("unknown repair policy %q", *repair)
	}

	sim, err := scalefree.NewChurnSimulator(scalefree.ChurnConfig{
		InitialN: *n, M: *m, KC: *kc,
		Join:     join,
		Repair:   policy,
		Graceful: !*crash,
	}, scalefree.NewRNG(*seed))
	if err != nil {
		return err
	}

	probeEvery := *events / *probes
	if probeEvery < 1 {
		probeEvery = 1
	}
	trace, err := sim.Run(*events, *pJoin, probeEvery, *sources, *ttl)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "churn: N0=%d m=%d kc=%d events=%d pjoin=%.2f join=%s repair=%s graceful=%v\n\n",
		*n, *m, *kc, *events, *pJoin, join, policy, !*crash)
	fmt.Fprintln(out, "event | alive | mean deg | max deg | giant% | gamma | NF hits | msgs/event")
	for _, s := range trace {
		fmt.Fprintf(out, "%5d | %5d | %8.2f | %7d | %5.1f%% | %5.2f | %7.0f | %10.1f\n",
			s.Event, s.Alive, s.MeanDegree, s.MaxDegree, 100*s.GiantFrac, s.Gamma, s.NFHits, s.MessagesPerEvent)
	}
	st := sim.Stats()
	fmt.Fprintf(out, "\ntotals: joins=%d leaves=%d messages=%d repair-links=%d failed-stubs=%d\n",
		st.Joins, st.Leaves, st.Messages, st.RepairLinks, st.FailedStubs)

	if *csvPath != "" {
		if err := writeTrace(*csvPath, trace); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", *csvPath)
	}
	return nil
}

func writeTrace(path string, trace []scalefree.ChurnSnapshot) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"event", "alive", "mean_degree", "max_degree", "giant_frac", "gamma", "nf_hits", "msgs_per_event"}); err != nil {
		return err
	}
	for _, s := range trace {
		rec := []string{
			strconv.Itoa(s.Event),
			strconv.Itoa(s.Alive),
			strconv.FormatFloat(s.MeanDegree, 'f', 4, 64),
			strconv.Itoa(s.MaxDegree),
			strconv.FormatFloat(s.GiantFrac, 'f', 6, 64),
			strconv.FormatFloat(s.Gamma, 'f', 4, 64),
			strconv.FormatFloat(s.NFHits, 'f', 2, 64),
			strconv.FormatFloat(s.MessagesPerEvent, 'f', 3, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
