package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict classifies one (workload, metric) pair of two results files by
// the metric's own bound, applied to medians. A pair whose run-to-run
// spread exceeds the bound while the two bands overlap is unresolved,
// not unchanged: the runs cannot tell.
func verdict(def metricDef, a, b summary) (string, float64) {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "missing", 0
	}
	worse := (b.Median - a.Median) / a.Median // > 0 when b is worse
	if def.higher {
		worse = -worse
	}
	alo, ahi := band(a)
	blo, bhi := band(b)
	overlap := alo <= bhi && blo <= ahi
	switch {
	case overlap && ((ahi-alo)/a.Median > def.bound || (bhi-blo)/b.Median > def.bound):
		return "unresolved", worse
	case worse > def.bound:
		return "worse", worse
	case worse < -def.bound:
		return "better", worse
	}
	return "same", worse
}

// band is the interval a metric's runs span: their range for a handful of
// runs, the interquartile range from eight runs on (set-up is sampled five
// times per round, and one slow exec must not make it unresolvable).
func band(s summary) (lo, hi float64) {
	if len(s.Values) < 8 {
		return s.Min, s.Max
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/4], sorted[3*len(sorted)/4]
}

func readResults(path string) (results, error) {
	var r results
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareMain implements `bench compare a.json b.json`: a is the
// baseline. It exits 1 when any pair is worse.
func compareMain(args []string, stdout io.Writer) (int, error) {
	if len(args) != 2 {
		return 2, errors.New("usage: bench compare a.json b.json")
	}
	a, err := readResults(args[0])
	if err != nil {
		return 1, err
	}
	b, err := readResults(args[1])
	if err != nil {
		return 1, err
	}
	if a.Quick != b.Quick || a.Seed != b.Seed {
		return 1, fmt.Errorf("results differ in size or seed (quick %v/%v, seed %d/%d): not comparable", a.Quick, b.Quick, a.Seed, b.Seed)
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-14s %-20s %-11s %12s %12s %8s %6s\n", "workload", "metric", "verdict", "a.median", "b.median", "change", "bound")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(stdout, "%-14s missing from %s\n", wa.Name, args[1])
			counts["missing"]++
			continue
		}
		for _, def := range endToEnd {
			v, worse := verdict(def, wa.Metrics[def.name], wb.Metrics[def.name])
			counts[v]++
			fmt.Fprintf(stdout, "%-14s %-20s %-11s %12.6g %12.6g %+7.1f%% %5.0f%%\n", wa.Name, def.name, v,
				wa.Metrics[def.name].Median, wb.Metrics[def.name].Median, 100*worse, 100*def.bound)
		}
		v := "same"
		if wb.FailedFrac > wa.FailedFrac {
			v = "worse" // any increase
		}
		counts[v]++
		fmt.Fprintf(stdout, "%-14s %-20s %-11s %12.6g %12.6g\n", wa.Name, "failed_frac", v, wa.FailedFrac, wb.FailedFrac)
		exact := "equal"
		if wa.Units != wb.Units || fmt.Sprint(wa.Digests) != fmt.Sprint(wb.Digests) {
			exact = "DIFFER"
			counts["worse"]++
		}
		fmt.Fprintf(stdout, "%-14s %-20s %s\n", wa.Name, "units+digests", exact)
	}
	fmt.Fprintf(stdout, "\nbetter=%d worse=%d unresolved=%d same=%d missing=%d (change > 0 is worse; a=%s b=%s)\n",
		counts["better"], counts["worse"], counts["unresolved"], counts["same"], counts["missing"], args[0], args[1])
	if counts["worse"] > 0 || counts["missing"] > 0 {
		return 1, nil
	}
	return 0, nil
}
