// Command bench is the repository's benchmark: six named workloads, each
// one registered spec at a fixed size, run cold in a fresh child process
// exactly as cmd/experiments runs a spec, with end-to-end metrics from
// untraced runs and per-layer metrics from a separate traced pass that
// replays realization 0 of every series through the layers' public
// functions. See README.md in this directory.
//
// Usage (from this directory, or through run.sh):
//
//	go run . [-reps 3] [-seed 2007] [-trace 1] [-quick] [-json out/results.json]
//	go run . -workload sweep-cm -seed 7 -seconds 15 -trace 0   # driver contract
//	go run . compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// options are the harness flags; the unexported tail is the parent→child
// protocol.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	reps     int
	trace    int
	quick    bool
	out      string
	golden   string
	jsonOut  string
	update   bool
	tmp      string // parent: this pass's directory for child outdirs, under out

	child     bool
	setupOnly bool
	outdir    string
	spawned   int64
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's one-line JSON result (empty = all workloads, human report)")
	fs.Uint64Var(&o.seed, "seed", 2007, "spec seed; 2007 and 1009 (held out) have golden digests, other seeds get a structural check")
	fs.Float64Var(&o.seconds, "seconds", 0, "with -workload: keep starting child runs for this long (0 = exactly -reps runs)")
	fs.IntVar(&o.reps, "reps", 3, "child runs per workload, interleaved round-robin across workloads")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced pass: per-layer metrics from spans and the realization-0 replay")
	fs.BoolVar(&o.quick, "quick", false, "run the ~50x smaller self-test sizes")
	fs.StringVar(&o.out, "out", "out", "scratch and trace directory (created; child outdirs live and die under it)")
	fs.StringVar(&o.golden, "golden", "golden.json", "golden digests file")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full results (host, every sample) to this file")
	fs.BoolVar(&o.update, "update-golden", false, "record this run's units and digests in the golden file instead of checking them")
	fs.BoolVar(&o.child, "child", false, "internal: run one op of -workload and print its result")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	fs.StringVar(&o.outdir, "outdir", "", "internal: the child's private output directory")
	fs.Int64Var(&o.spawned, "spawned", 0, "internal: parent clock (unix ns) just before the child was started")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.child {
		return 0, childMain(o, stdout)
	}
	return parentMain(o, stdout)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
