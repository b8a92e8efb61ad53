// Command experiments regenerates the paper's tables and figures. Each
// experiment writes one CSV per figure panel into the output directory and
// prints an ASCII rendering to stdout.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig6 -scale smoke -outdir results
//	experiments -exp all  -scale paper -outdir results   # hours at paper scale
//	experiments -exp fig9 -workers 4                     # parallelism budget of 4 goroutines
//	experiments -exp fig6 -workers 1                     # fully serial run
//	experiments -scale xl                                # N=10^6 degree distributions
//	experiments -exp fig9 -cpuprofile cpu.pprof          # profile a hot experiment
//	experiments -exp desflood,deskwalk,desfail           # message-level DES specs
//	experiments -exp desflood -loss 0.05 -latency-jitter 2   # single loss rate, delay U[0,2) (base 0)
//	experiments -exp desflood -latency-base 1 -latency-jitter 2  # delay 1 + U[0,2): wider jitter
//	experiments -exp desfail -fail-frac 0.2              # 20% failure sweep
//	experiments -exp all -scale paper -resume            # continue a killed run
//	experiments -exp fig9 -retries 2 -max-failed 1       # tolerate flaky realizations
//	experiments -mode coordinator -coord-addr :9009 -exp fig9   # serve work leases
//	experiments -mode worker -coord-addr host:9009              # claim and execute leases
//
// -workers is each experiment's parallelism budget P (default 0 =
// GOMAXPROCS). Over n realizations the engine runs min(P, n) of them at
// once, each building its topology while earlier ones are swept, and gives
// each realization ceil(P / min(P, n)) goroutines for intra-generator work
// and for sweeping its sources against the shared frozen topology. At most
// 3·min(P, n) topologies are alive at once. The output is bit-for-bit
// identical for any -workers; see EXPERIMENTS.md.
//
// The message-level discrete-event specs (desflood, deskwalk, desfail)
// take their knobs in every mode but worker: -latency-base/-latency-jitter
// set the per-edge delay model, base + jitter·U[0,1) (both unset = 1 +
// U[0,1); setting either leaves the other at 0), -loss pins a
// single message-loss rate (unset = sweep {0, 2%, 10%}), and
// -fail-frac/-fail-mtbf shape the desfail failure schedule (unset = sweep
// {0, 10%, 20%, 30%} with MTBF 2).
//
// Crash safety (see EXPERIMENTS.md "Checkpoint / resume"): by default each
// spec checkpoints completed realizations to <outdir>/<exp>.journal;
// -resume replays them and produces byte-identical CSVs to an
// uninterrupted run. -retries re-attempts failed realizations
// deterministically, -max-failed absorbs permanent failures into partial
// figures with explicit accounting, and -stall-timeout arms a watchdog
// that dumps all goroutine stacks when no realization progresses.
// SIGINT/SIGTERM stops at the next realization boundary, flushes the
// journal and profiles, and exits with status 3 (distinct from status 1
// errors); journals of interrupted or partial specs are kept, and clean
// journals are removed only after the whole run succeeds.
//
// The xl scale runs an order of magnitude past the paper (10⁶-node degree
// distributions, 10⁵-node search topologies) on the CSR-frozen read path.
// Its estimators make the specs whose measurement is superlinear in N
// sublinear, with published uncertainty — batched Brandes–Pich pivot
// betweenness for the attack spec (-bc-pivots), landmark BFS path
// statistics for table1 (-path-landmarks/-path-pairs), and capped
// random-walk delivery budgets with truncation accounting (-walk-cap).
// They do not reach growth: HAPA under a hard cutoff builds in Θ(N²)
// time, and -exp all -scale xl has not been measured. See EXPERIMENTS.md
// "Scales" and "Estimators & budgets" for the agreement-gate contract
// behind each estimator.
//
// Distributed runs (see EXPERIMENTS.md "Distributed runs"): -mode
// coordinator serves (spec, realization) work leases on -coord-addr and
// journals the records workers stream back; -mode worker claims leases
// from -coord-addr, executes each leased realization under the shared
// (seed, realization, phase) stream contract, and streams the records
// home. Leases expire after -lease-ttl without a heartbeat (interval
// -heartbeat, shorter than the TTL, default ttl/5) and are reissued, so
// crashed or partitioned workers only cost time. The coordinator's final
// reduction replays its journal and recomputes anything the fleet never
// delivered — CSVs are byte-identical to a local run no matter how many
// workers ran, died, or straggled. A killed coordinator resumes with
// -resume.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, so performance PRs can attach flame-graph evidence. All
// artifacts — CSVs and profiles — are written to a temp file and renamed
// into place, so no exit path can leave a truncated file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"scalefree/internal/coord"
	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

func main() {
	// -h prints the usage and exits 0.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, sim.ErrInterrupted) {
			os.Exit(3) // partial run, resumable — distinct from hard failure
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale      = fs.String("scale", "smoke", "experiment scale: smoke|paper|xl")
		seed       = fs.Uint64("seed", 2007, "RNG seed (the venue year, for luck)")
		outdir     = fs.String("outdir", "results", "directory for CSV output")
		list       = fs.Bool("list", false, "list available experiments and exit")
		verify     = fs.Bool("verify", false, "check the paper's headline claims and exit")
		plot       = fs.Bool("plot", true, "print ASCII renderings to stdout")
		workers    = fs.Int("workers", 0, "parallelism budget per experiment (0 = GOMAXPROCS): concurrent realizations, then generator and source-sweep goroutines per realization; results are identical for any value")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the last experiment")
		mode       = fs.String("mode", "csr", "csr (run locally), coordinator, or worker")
		latBase    = fs.Float64("latency-base", 0, "DES fixed per-edge delay component; with -latency-jitter also 0 the delay is 1+U[0,1), and setting either leaves the other at 0")
		latJitter  = fs.Float64("latency-jitter", 0, "DES per-edge uniform delay component scale (see -latency-base for the default)")
		loss       = fs.Float64("loss", 0, "DES message loss rate in [0,1); 0 sweeps the default series {0, 0.02, 0.10}")
		failFrac   = fs.Float64("fail-frac", 0, "desfail failure fraction in [0,1); 0 sweeps the default series {0, 0.10, 0.20, 0.30}")
		failMTBF   = fs.Float64("fail-mtbf", 0, "desfail mean time before a selected element goes down (0 = default 2 time units)")
		checkpoint = fs.Bool("checkpoint", true, "journal completed realizations to <outdir>/<exp>.journal for -resume")
		resume     = fs.Bool("resume", false, "resume from an existing journal: replay completed realizations, recompute the rest; output is byte-identical to an uninterrupted run")
		retries    = fs.Int("retries", 1, "deterministic re-attempts per failed realization (panic or error) before it counts as permanently failed")
		maxFailed  = fs.Int("max-failed", 0, "permanently failed realizations tolerated per experiment before aborting; survivors produce partial figures with explicit accounting")
		stall      = fs.Duration("stall-timeout", 10*time.Minute, "dump all goroutine stacks if no realization progresses for this long (0 disables)")
		coordAddr  = fs.String("coord-addr", "", "coordinator endpoint: the listen address in -mode coordinator, the coordinator's address in -mode worker")
		listenAddr = fs.String("listen", "127.0.0.1:0", "-mode worker: this worker's reply/listen address (port 0 = ephemeral)")
		leaseTTL   = fs.Duration("lease-ttl", 10*time.Second, "-mode coordinator: lease expiry without a heartbeat before a realization is reissued")
		heartbeat  = fs.Duration("heartbeat", 0, "-mode coordinator: lease renewal interval workers are told to use, shorter than -lease-ttl (0 = lease-ttl/5)")
		bcPivots   = fs.Int("bc-pivots", 0, "attack spec: Brandes-Pich pivots per batched betweenness step (0 = scale default; >= N prices steps with exact Brandes)")
		pathLand   = fs.Int("path-landmarks", 0, "table1: landmark BFS passes for estimated path stats (0 = scale default; exact sampled BFS when the scale sets none)")
		pathPairs  = fs.Int("path-pairs", 0, "table1: sampled node pairs per realization for the landmark estimator (0 = scale default)")
		walkCap    = fs.Int("walk-cap", 0, "delivery spec: cap per-pair random-walk budget at min(200*N, cap) steps (0 = scale default; truncations are reported in figure notes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	expSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})

	if *list {
		for _, s := range sim.Registry() {
			fmt.Fprintf(stdout, "%-10s %-12s %s\n", s.ID, s.Paper, s.Description)
		}
		return nil
	}

	var sc sim.Scale
	switch *scale {
	case "smoke":
		sc = sim.SmokeScale
	case "paper":
		sc = sim.PaperScale
	case "xl":
		sc = sim.XLScale
	default:
		return fmt.Errorf("unknown scale %q (want smoke, paper, or xl)", *scale)
	}
	sc.Workers = *workers
	// Estimator knobs: explicit flags win over the scale preset (xl sets
	// estimator defaults; smoke and paper default to exact measurements).
	// A negative one is mapped too, for sc.Validate to refuse.
	if *bcPivots != 0 {
		sc.BCPivots = *bcPivots
	}
	if *pathLand != 0 {
		sc.PathLandmarks = *pathLand
	}
	if *pathPairs != 0 {
		sc.PathPairs = *pathPairs
	}
	if *walkCap != 0 {
		sc.WalkCap = *walkCap
	}
	// The DES knobs shape the DES specs in whichever mode selects them
	// (a coordinator ships them to the fleet inside every lease); only a
	// worker ignores its own, because its workload arrives in the lease.
	if *mode != "worker" {
		sc.DESLatencyBase = *latBase
		sc.DESLatencyJitter = *latJitter
		sc.DESLoss = *loss
		sc.DESFailFrac = *failFrac
		sc.DESFailMTBF = *failMTBF
	}
	if err := sc.Validate(); err != nil {
		return err
	}

	switch *mode {
	case "csr":
	case "coordinator":
		if *coordAddr == "" {
			return errors.New("-mode coordinator requires -coord-addr (the listen address for worker claims)")
		}
		if *leaseTTL <= 0 {
			return fmt.Errorf("-lease-ttl %v must be > 0", *leaseTTL)
		}
		if *heartbeat < 0 {
			return fmt.Errorf("-heartbeat %v must be >= 0", *heartbeat)
		}
		// A lease lapses after -lease-ttl without renewal, so a renewal
		// interval that long or longer reissues every lease before its
		// first heartbeat lands.
		if *heartbeat >= *leaseTTL {
			return fmt.Errorf("-heartbeat %v must be shorter than -lease-ttl %v", *heartbeat, *leaseTTL)
		}
	case "worker":
		if *coordAddr == "" {
			return errors.New("-mode worker requires -coord-addr (the coordinator's address)")
		}
	default:
		return fmt.Errorf("unknown mode %q (want csr, coordinator, or worker)", *mode)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries %d must be >= 0", *retries)
	}
	if *maxFailed < 0 {
		return fmt.Errorf("-max-failed %d must be >= 0", *maxFailed)
	}
	if *stall < 0 {
		return fmt.Errorf("-stall-timeout %v must be >= 0 (0 disables the watchdog)", *stall)
	}

	// Signals interrupt cooperatively: the first one cancels the run
	// context, which the engines observe at realization boundaries so the
	// journal stays a clean prefix; the second force-quits. The done
	// channel unhooks everything on return — run() is also called from
	// tests, which must not leak handlers.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case s := <-sigc:
			fmt.Fprintf(os.Stderr, "experiments: received %v; stopping at the next realization boundary (journal kept for -resume; repeat to force quit)\n", s)
			cancel(fmt.Errorf("received %v", s))
		case <-done:
			return
		}
		select {
		case s := <-sigc:
			fmt.Fprintf(os.Stderr, "experiments: received %v again; forcing exit\n", s)
			os.Exit(130)
		case <-done:
		}
	}()

	prof, err := startProfiler(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	// stop() runs on every exit path — interrupt, spec error, success — so
	// profiles are finalized (and renamed into place) even when the run
	// does not reach its happy path.
	defer prof.stop()

	if *verify {
		scv := sc
		scv.Run = sim.NewRunControl(ctx, *retries, *maxFailed, nil)
		return runVerify(stdout, scv, *seed)
	}

	if *mode == "worker" {
		return runWorkerMode(ctx, *coordAddr, *listenAddr, *retries)
	}

	var specs []sim.Spec
	if *exp == "all" {
		specs = sim.Registry()
	} else {
		// A spec listed twice would run twice over one journal path.
		seen := map[string]bool{}
		for _, id := range strings.Split(*exp, ",") {
			s, err := sim.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			if seen[s.ID] {
				return fmt.Errorf("-exp lists %s more than once", s.ID)
			}
			seen[s.ID] = true
			specs = append(specs, s)
		}
	}

	// Coordinator mode: one lease server spans every selected spec; the
	// fleet survives across specs and is dismissed when the session ends.
	var distSrv *coord.Server
	if *mode == "coordinator" {
		tnet := p2p.NewTCPNetwork()
		defer tnet.Close()
		srv, err := coord.NewServer(tnet, *coordAddr)
		if err != nil {
			return err
		}
		distSrv = srv
		defer srv.Close()
		defer srv.ShutdownWorkers()
		fmt.Fprintf(os.Stderr, "experiments: coordinator serving leases on %s\n", srv.Addr())
	}

	if *scale == "xl" && !expSet && *mode == "csr" {
		fmt.Fprintln(os.Stderr, "experiments: xl runs attack/table1/delivery on estimators with published uncertainty (see EXPERIMENTS.md \"Estimators & budgets\"); HAPA growth under a cutoff stays Θ(N²), and the full registry at xl is untimed")
	}

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return fmt.Errorf("mkdir %s: %w", *outdir, err)
	}

	// Coordinator mode journals unconditionally: the journal is where the
	// fleet's streamed records land, the dedup substrate for stolen leases,
	// and the resume point if the coordinator itself dies.
	useJournal := *checkpoint || *resume || distSrv != nil
	var cleanJournals []string
	anyFailures := false
	for _, spec := range specs {
		start, cpu := time.Now(), cpuSeconds()
		fmt.Fprintf(os.Stderr, "running %s (%s: %s)...\n", spec.ID, spec.Paper, spec.Description)
		var j *sim.Journal
		if useJournal {
			var err error
			j, err = sim.OpenJournal(filepath.Join(*outdir, spec.ID+".journal"), spec.ID, *seed, sc, *resume)
			if err != nil {
				return err
			}
			if n := j.Resumed(); n > 0 {
				fmt.Fprintf(os.Stderr, "experiments: %s: resuming with %d journaled realization record(s)\n", spec.ID, n)
			}
		}
		if distSrv != nil {
			if spec.Distributable {
				dstats, derr := distSrv.RunJob(ctx, coord.JobConfig{
					Spec: spec.ID, Seed: *seed, Scale: sc,
					LeaseTTL: *leaseTTL, Heartbeat: *heartbeat, WorkerRetries: *retries,
				}, j)
				if derr != nil {
					if cerr := j.Close(); cerr != nil {
						fmt.Fprintln(os.Stderr, "experiments: close journal:", cerr)
					}
					if errors.Is(derr, context.Canceled) {
						fmt.Fprintf(os.Stderr, "experiments: %s interrupted; journal kept at %s — rerun with -resume to continue\n", spec.ID, j.Path())
						return fmt.Errorf("%s: %w", spec.ID, sim.ErrInterrupted)
					}
					return fmt.Errorf("%s: %w", spec.ID, derr)
				}
				fmt.Fprintf(os.Stderr, "experiments: %s: fleet settled %d/%d realization(s) (%d lease(s) issued, %d stolen, %d record(s) journaled)\n",
					spec.ID, dstats.Done, sc.Realizations, dstats.LeasesIssued, dstats.Reissued, dstats.Accepted)
				if dstats.BadRecords > 0 || dstats.Rejected > 0 {
					fmt.Fprintf(os.Stderr, "experiments: %s: records lost in transit: %d bad record(s), %d rejected completion(s)\n", spec.ID, dstats.BadRecords, dstats.Rejected)
				}
				if dstats.GivenUp > 0 {
					fmt.Fprintf(os.Stderr, "experiments: %s: %d realization(s) given up by the fleet; recomputing locally in the final reduction\n", spec.ID, dstats.GivenUp)
				}
			} else {
				fmt.Fprintf(os.Stderr, "experiments: %s is not distributable (results bypass the journal); running locally\n", spec.ID)
			}
		}
		// In coordinator mode this local run IS the final reduction: the
		// journal replays every record the fleet streamed, in index order,
		// and recomputes anything lost or given up — byte-identical to a
		// purely local run by the (seed, realization, phase) contract.
		rc := sim.NewRunControl(ctx, *retries, *maxFailed, j)
		stopWatch := rc.StartWatchdog(*stall, os.Stderr)
		scRun := sc
		scRun.Run = rc
		figs, err := spec.Run(scRun, *seed)
		stopWatch()
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			if useJournal && errors.Is(err, sim.ErrInterrupted) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted; journal kept at %s — rerun with -resume to continue\n", spec.ID, j.Path())
			}
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		if n := rc.Recovered(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %s: %d realization(s) recovered by retry\n", spec.ID, n)
		}
		if failures := rc.Failures(); len(failures) > 0 {
			anyFailures = true
			fmt.Fprintf(os.Stderr, "experiments: %s completed with %d permanently failed realization(s) within the -max-failed budget:\n", spec.ID, len(failures))
			for _, fr := range failures {
				fmt.Fprintf(os.Stderr, "  %s\n", fr)
			}
			note := fmt.Sprintf("PARTIAL: %d realization(s) failed permanently and are excluded from the averages", len(failures))
			for i := range figs {
				if figs[i].Notes != "" {
					figs[i].Notes += "; "
				}
				figs[i].Notes += note
			}
			if useJournal {
				fmt.Fprintf(os.Stderr, "experiments: journal kept at %s (failed realizations re-run on -resume)\n", j.Path())
			}
		} else if useJournal {
			cleanJournals = append(cleanJournals, j.Path())
		}
		for _, fig := range figs {
			path := filepath.Join(*outdir, fig.ID+".csv")
			if err := writeCSV(path, fig); err != nil {
				return err
			}
			if *plot {
				fmt.Fprintln(stdout, sim.RenderTable(fig))
				if len(fig.Series) > 0 && len(fig.Series[0].Points) > 1 {
					fmt.Fprintln(stdout, sim.RenderPlot(fig, 72, 20))
				}
			}
		}
		// How busy the spec kept the cores: its CPU time over wall time
		// times GOMAXPROCS.
		wall, cpu, procs := time.Since(start), cpuSeconds()-cpu, runtime.GOMAXPROCS(0)
		fmt.Fprintf(os.Stderr, "%s done in %s (%d panels; cpu %.3fs, %.2f of %d cores)\n",
			spec.ID, wall.Round(time.Millisecond), len(figs), cpu, cpu/(wall.Seconds()*float64(procs)), procs)
	}
	// Drop clean journals only now, after every selected spec succeeded:
	// until this point a crash in spec k still resumes specs 0..k-1 for
	// free (their journals replay fully). With any partial spec in the
	// run, everything is kept so -resume can fill the holes.
	if !anyFailures {
		for _, p := range cleanJournals {
			if err := os.Remove(p); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: remove journal:", err)
			}
		}
	}
	return nil
}

// runWorkerMode serves one worker process: claim leases from the
// coordinator at coordAddr, execute each leased realization, stream the
// records back, repeat until the coordinator dismisses the fleet. A
// SIGINT/SIGTERM (cancelled ctx) exits cleanly without a farewell — the
// coordinator reissues whatever the worker held.
func runWorkerMode(ctx context.Context, coordAddr, listen string, retries int) error {
	tnet := p2p.NewTCPNetwork()
	defer tnet.Close()
	stats, err := coord.RunWorker(ctx, tnet, coord.WorkerConfig{
		CoordAddr: coordAddr, Addr: listen, Retries: retries,
	})
	fmt.Fprintf(os.Stderr, "experiments: worker exiting: %d lease(s), %d record(s) streamed, %d completion(s), %d failure(s), %d credit wait(s), %d credit timeout(s)\n",
		stats.Leases, stats.Records, stats.Completions, stats.Failures, stats.CreditWaits, stats.CreditTimeouts)
	if err != nil && errors.Is(err, context.Canceled) {
		// Interrupted by signal: normal fleet operations, not a failure.
		return nil
	}
	return err
}

// profiler owns the pprof artifacts. Both profiles stream/land in a temp
// file first and are renamed into place by stop(), which every exit path
// reaches via defer — a crash or interrupt can leave a stray .tmp-* at
// worst, never a truncated profile under the requested name.
type profiler struct {
	cpuPath, memPath string
	cpuTmp           *os.File
	stopped          bool
}

func startProfiler(cpuPath, memPath string) (*profiler, error) {
	p := &profiler{cpuPath: cpuPath, memPath: memPath}
	if cpuPath != "" {
		f, err := os.CreateTemp(filepath.Dir(cpuPath), filepath.Base(cpuPath)+".tmp-*")
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuTmp = f
	}
	return p, nil
}

// stop finalizes the profiles; idempotent so explicit calls and the defer
// in run() compose.
func (p *profiler) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	if p.cpuTmp != nil {
		pprof.StopCPUProfile()
		tmp := p.cpuTmp.Name()
		err := p.cpuTmp.Sync()
		if cerr := p.cpuTmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, p.cpuPath)
		}
		if err != nil {
			os.Remove(tmp)
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
		}
	}
	if p.memPath != "" {
		runtime.GC() // materialize the steady-state heap before writing
		if err := atomicWrite(p.memPath, func(f *os.File) error {
			return pprof.WriteHeapProfile(f)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
		}
	}
}

// runVerify checks every machine-checkable paper claim and reports
// PASS/FAIL; it exits non-zero if any claim fails. Claims marked as
// documented fidelity deviations report DEVIA and never fail the run —
// the measurement stays on record, the expected outcome is "not
// reproduced".
func runVerify(stdout io.Writer, sc sim.Scale, seed uint64) error {
	results := sim.CheckAllClaims(sc, seed)
	failed, deviations := 0, 0
	for _, r := range results {
		status := "PASS"
		switch {
		case r.Err != nil:
			status = "ERROR"
			failed++
		case r.Deviation != "":
			status = "DEVIA"
			deviations++
		case !r.Pass:
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "[%-5s] %-28s %s\n", status, r.ID, r.Statement)
		if r.Detail != "" {
			fmt.Fprintf(stdout, "        measured: %s\n", r.Detail)
		}
		if r.Deviation != "" {
			fmt.Fprintf(stdout, "        deviation: %s\n", r.Deviation)
		}
		if r.Err != nil {
			fmt.Fprintf(stdout, "        error: %v\n", r.Err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d claims failed", failed, len(results))
	}
	fmt.Fprintf(stdout, "%d/%d paper claims verified (%d documented deviations)\n",
		len(results)-deviations, len(results), deviations)
	return nil
}

// atomicWrite fills a temp file in path's directory and renames it into
// place, so no reader (or crash) ever observes a truncated artifact.
func atomicWrite(path string, fill func(f *os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func writeCSV(path string, fig sim.Figure) error {
	return atomicWrite(path, func(f *os.File) error {
		return sim.WriteCSV(f, fig)
	})
}
