package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"scalefree/internal/coord"
	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// opResult is what one child process reports to the parent on stdout.
type opResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`

	// End-to-end measurements of the timed region (OpenJournal, or
	// RunJob, through the last CSV rename) and of the set-up before it.
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`

	Units     int64      `json:"units"`
	Failed    int64      `json:"failed"`
	Recovered int64      `json:"recovered"`
	Digest    string     `json:"digest"`
	Shape     []figShape `json:"shape"`

	JournalBytes int64   `json:"journal_bytes"`
	CSVBytes     int64   `json:"csv_bytes"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	GOMAXPROCS   int     `json:"gomaxprocs"`

	// Traced children only.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// figShape is the structural fingerprint of one figure, checked when no
// golden digest exists for the seed.
type figShape struct {
	ID     string `json:"id"`
	Series int    `json:"series"`
	Points int    `json:"points"`
	Finite bool   `json:"finite"`
}

// distRun is the coordinator side of a records-dist op plus its in-process
// fleet, set up before the timed region.
type distRun struct {
	net     *p2p.TCPNetwork
	srv     *coord.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	workers []coord.WorkerStats
	tcp     []p2p.TCPStats
	errs    []error
	job     coord.Stats
}

func startFleet(n int) (*distRun, error) {
	d := &distRun{net: p2p.NewTCPNetwork()}
	srv, err := coord.NewServer(d.net, "127.0.0.1:0")
	if err != nil {
		d.net.Close()
		return nil, err
	}
	d.srv = srv
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for i := 0; i < n; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			wnet := p2p.NewTCPNetwork()
			defer wnet.Close()
			st, err := coord.RunWorker(ctx, wnet, coord.WorkerConfig{CoordAddr: srv.Addr(), Addr: "127.0.0.1:0", Retries: 1})
			d.mu.Lock()
			defer d.mu.Unlock()
			d.workers = append(d.workers, st)
			d.tcp = append(d.tcp, wnet.Stats())
			if err != nil && !errors.Is(err, context.Canceled) {
				d.errs = append(d.errs, err)
			}
		}()
	}
	return d, nil
}

// stop dismisses the fleet the way a coordinator session ends and waits
// for every worker goroutine; the cancel only bounds a worker that missed
// the shutdown message.
func (d *distRun) stop() error {
	d.srv.ShutdownWorkers()
	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	d.cancel()
	<-done
	d.srv.Close()
	d.net.Close()
	return errors.Join(d.errs...)
}

// fleetSize is min(nproc, 2): the reference host has two cores, and a
// larger fleet would make records-dist a different workload per host.
func fleetSize() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// setUp is everything an op does before its timed region: spec lookup,
// the private outdir, and for a dist workload the listener and the fleet.
func setUp(w workload, outdir string) (sim.Spec, *distRun, error) {
	spec, err := sim.Lookup(w.spec)
	if err != nil {
		return spec, nil, err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return spec, nil, err
	}
	if !w.dist {
		return spec, nil, nil
	}
	fleet, err := startFleet(fleetSize())
	return spec, fleet, err
}

// runOp does what cmd/experiments run() does for one spec — OpenJournal,
// NewRunControl, Spec.Run, Journal.Close, one atomic CSV per figure —
// with the CLI's default knobs (-retries 1, -max-failed 0, -checkpoint,
// 10 m stall watchdog). spawned is the parent's clock just before it
// started this process. keepJournal leaves the journal in outdir for the
// traced replay.
func runOp(w workload, sc sim.Scale, seed uint64, outdir string, spawned time.Time, tr *tracer, keepJournal bool) (opResult, *distRun, error) {
	res := opResult{Workload: w.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	spec, fleet, err := setUp(w, outdir)
	if err != nil {
		return res, nil, err
	}
	ctx := context.Background()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	res.SetupS = start.Sub(spawned).Seconds()

	root := tr.begin("run", 0)
	var j *sim.Journal
	jpath := filepath.Join(outdir, spec.ID+".journal")
	err = tr.do("sim.open_journal", root, func() error {
		j, err = sim.OpenJournal(jpath, spec.ID, seed, sc, false)
		return err
	})
	if err != nil {
		return res, fleet, err
	}
	if fleet != nil {
		err = tr.do("coord.run_job", root, func() error {
			fleet.job, err = fleet.srv.RunJob(ctx, coord.JobConfig{Spec: spec.ID, Seed: seed, Scale: sc, WorkerRetries: 1}, j)
			return err
		})
		if err != nil {
			j.Close()
			return res, fleet, err
		}
		res.Failed += fleet.job.GivenUp + fleet.job.Rejected
	}
	rc := sim.NewRunControl(ctx, 1, 0, j)
	stopWatch := rc.StartWatchdog(10*time.Minute, os.Stderr)
	scRun := sc
	scRun.Run = rc
	var figs []sim.Figure
	err = tr.do("sim.spec_run", root, func() error {
		figs, err = spec.Run(scRun, seed)
		return err
	})
	stopWatch()
	cerr := tr.do("sim.journal_close", root, func() error { return j.Close() })
	if err == nil {
		err = cerr
	}
	if err != nil {
		return res, fleet, fmt.Errorf("%s: %w", spec.ID, err)
	}
	err = tr.do("sim.write_csv", root, func() error {
		for _, fig := range figs {
			if err := writeCSV(filepath.Join(outdir, fig.ID+".csv"), fig); err != nil {
				return err
			}
		}
		return nil
	})
	tr.end(root)
	if err != nil {
		return res, fleet, err
	}

	res.WallS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	res.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6

	res.Units = rc.Progress()
	res.Failed += int64(len(rc.Failures()))
	res.Recovered = rc.Recovered()
	if st, err := os.Stat(jpath); err == nil {
		res.JournalBytes = st.Size()
	}
	if !keepJournal {
		// The CLI drops a clean journal once the whole run succeeded.
		if err := os.Remove(jpath); err != nil {
			return res, fleet, err
		}
	}
	for _, fig := range figs {
		res.Shape = append(res.Shape, shapeOf(fig))
	}
	if res.Digest, res.CSVBytes, err = digestCSVs(outdir); err != nil {
		return res, fleet, err
	}
	res.PeakRSSMB = peakRSSMB()
	return res, fleet, nil
}

func shapeOf(fig sim.Figure) figShape {
	sh := figShape{ID: fig.ID, Series: len(fig.Series), Finite: true}
	for _, s := range fig.Series {
		sh.Points += len(s.Points)
		for _, p := range s.Points {
			for _, v := range [...]float64{p.X, p.Y, p.Err} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					sh.Finite = false
				}
			}
		}
	}
	return sh
}

// digestCSVs hashes every <fig.ID>.csv in dir, sorted by file name (specs
// return panels in non-alphabetical order), name and bytes both.
func digestCSVs(dir string) (string, int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return "", 0, err
	}
	sort.Strings(names)
	h := sha256.New()
	var total int64
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(b))
		h.Write(b)
		total += int64(len(b))
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}

// writeCSV mirrors cmd/experiments' atomic write: temp file in the target
// directory, fsync, rename. The self-test pins that the bytes equal the
// CLI's.
func writeCSV(path string, fig sim.Figure) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	tmp := f.Name()
	err = sim.WriteCSV(f, fig)
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

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM; 0 where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// childMain is the entry point of a child process: one op (or only its
// set-up), one JSON line.
func childMain(o options, stdout io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	spawned := time.Unix(0, o.spawned)
	defer os.RemoveAll(o.outdir)
	if o.setupOnly {
		// A run samples set-up many times for a steady median.
		_, fleet, err := setUp(w, o.outdir)
		if err != nil {
			return err
		}
		setup := time.Since(spawned).Seconds()
		if fleet != nil {
			fleet.cancel() // no job ran, so no worker knows the coordinator to be dismissed by
			if err := fleet.stop(); err != nil {
				return err
			}
		}
		return json.NewEncoder(stdout).Encode(opResult{Workload: w.name, SetupS: setup})
	}
	traced := o.trace == 1
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	}
	sc := w.size(o.quick)
	res, fleet, err := runOp(w, sc, o.seed, o.outdir, spawned, tr, traced)
	if fleet != nil {
		if serr := fleet.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	if traced {
		if res.Layers, err = traceLayers(w, sc, o.seed, o.outdir, res, fleet, tr); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(o.out, "trace-"+w.name+".jsonl")); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}
