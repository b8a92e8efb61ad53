package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbesPerOp is how many set-up-only children follow each op, so a
// run's setup_s is a median over several set-ups and not over a handful.
const setupProbesPerOp = 4

// hostInfo is recorded in every results file: numbers from different
// hosts, or from a loaded host, must be recognisable as such.
type hostInfo struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GOARCH       string  `json:"goarch"`
	Kernel       string  `json:"kernel"`
	GitRevision  string  `json:"git_revision"`
	LoadAvgStart float64 `json:"loadavg1_start"`
	LoadAvgEnd   float64 `json:"loadavg1_end"`
	TempFS       string  `json:"temp_fs"`
}

func readHost(outdir string) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Kernel: "unknown", GitRevision: "unknown", TempFS: "unknown",
		LoadAvgStart: loadAvg1(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitRevision = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outdir, &st); err == nil {
		h.TempFS = fmt.Sprintf("statfs type %#x", uint64(st.Type))
	}
	return h
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

// workloadResult is one workload's section of a results file.
type workloadResult struct {
	Name        string             `json:"name"`
	Spec        string             `json:"spec"`
	Size        map[string]int     `json:"size"`
	Why         string             `json:"why"`
	OutputCheck string             `json:"output_check"`
	Units       int64              `json:"units"`
	Digests     map[string]string  `json:"digests"` // seed → SHA-256 of the CSVs
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	Metrics     map[string]summary `json:"metrics"`
	Layers      map[string]summary `json:"layers,omitempty"`

	untraced, traced []opResult
	setups           []float64
	err              error
}

// results is the file `compare` reads.
type results struct {
	Host      hostInfo          `json:"host"`
	Seed      uint64            `json:"seed"`
	Quick     bool              `json:"quick"`
	Workloads []*workloadResult `json:"workloads"`
}

// childTimeout bounds one child process; the slowest traced child takes
// about 15 s on the reference host.
const childTimeout = 150 * time.Second

// spawn runs one child process to completion and decodes its result.
func spawn(o options, name string, seed uint64, traced, setupOnly bool, idx int) (opResult, error) {
	var res opResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	outdir := filepath.Join(o.tmp, fmt.Sprintf("%s-%d", name, idx))
	args := []string{
		"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-out", o.out, "-outdir", outdir, "-quick=" + strconv.FormatBool(o.quick),
		"-setup-only=" + strconv.FormatBool(setupOnly),
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	var stdout bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append(args, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s child: %w", name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s child: bad result: %w", name, err)
	}
	return res, nil
}

func parentMain(o options, stdout io.Writer) (int, error) {
	selected := workloads
	if o.workload != "" {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			return 2, err
		}
		selected = []workload{w}
	}
	if o.reps < 1 {
		return 2, errors.New("-reps must be at least 1")
	}
	golden, err := loadGolden(o.golden)
	if err != nil {
		if !o.update || !errors.Is(err, os.ErrNotExist) {
			return 1, err
		}
		golden = goldenFile{}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 1, err
	}
	// Children work in private directories under tmp and remove them on a
	// clean exit; the parent sweeps what a failed child left behind.
	o.tmp = filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(o.tmp)
	out := results{Host: readHost(o.out), Seed: o.seed, Quick: o.quick}
	for _, w := range selected {
		sc := w.size(o.quick)
		out.Workloads = append(out.Workloads, &workloadResult{
			Name: w.name, Spec: w.spec, Why: w.why,
			Size: map[string]int{
				"NSearch": sc.NSearch, "NSubstrate": sc.NSubstrate, "NOverlay": sc.NOverlay,
				"Realizations": sc.Realizations, "Sources": sc.Sources,
				"MaxTTLFlood": sc.MaxTTLFlood, "MaxTTLNF": sc.MaxTTLNF,
			},
		})
	}

	// Rounds interleave the workloads so a noisy minute on a shared host
	// is spread over all of them, and round i runs seed+i: a growth build's
	// cost moves several percent with the seed, so a median over one seed
	// repeated would say more about that seed than about the code. With
	// -seconds the rounds continue until the time is used up; a round is
	// not started when it would likely overshoot by more than half its
	// own length.
	start := time.Now()
	idx := 0
	for round := 0; ; round++ {
		if o.seconds <= 0 && round >= o.reps {
			break
		}
		roundStart := time.Now()
		for _, wr := range out.Workloads {
			if wr.err != nil {
				continue
			}
			wr.err = runRound(o, wr, o.seed+uint64(round), &idx)
		}
		if o.seconds > 0 {
			elapsed, last := time.Since(start).Seconds(), time.Since(roundStart).Seconds()
			if elapsed+last/2 > o.seconds {
				break
			}
		}
	}
	out.Host.LoadAvgEnd = loadAvg1()

	code := 0
	for _, wr := range out.Workloads {
		wr.finish(o, golden)
		if wr.err != nil {
			code = 1
		}
	}
	if o.update && code == 0 {
		if err := writeJSONFile(o.golden, golden); err != nil {
			return 1, err
		}
	}
	if o.jsonOut != "" {
		if err := writeJSONFile(o.jsonOut, out); err != nil {
			return 1, err
		}
	}
	report(stdout, out)
	if o.workload != "" {
		if err := driverLine(stdout, out.Workloads[0], o.trace == 1); err != nil {
			return 1, err
		}
	}
	if code != 0 {
		var errs []error
		for _, wr := range out.Workloads {
			errs = append(errs, wr.err)
		}
		return code, errors.Join(errs...)
	}
	return 0, nil
}

// runRound runs one untraced op of the workload, its set-up probes, and —
// in a traced pass — one traced op beside it.
func runRound(o options, wr *workloadResult, seed uint64, idx *int) error {
	next := func() int { *idx++; return *idx }
	res, err := spawn(o, wr.Name, seed, false, false, next())
	if err != nil {
		return err
	}
	wr.untraced = append(wr.untraced, res)
	wr.setups = append(wr.setups, res.SetupS)
	for i := 0; i < setupProbesPerOp; i++ {
		probe, err := spawn(o, wr.Name, seed, false, true, next())
		if err != nil {
			return err
		}
		wr.setups = append(wr.setups, probe.SetupS)
	}
	if o.trace == 1 {
		res, err := spawn(o, wr.Name, seed, true, false, next())
		if err != nil {
			return err
		}
		wr.traced = append(wr.traced, res)
	}
	return nil
}

// finish checks every op's output and reduces the samples to summaries.
func (wr *workloadResult) finish(o options, golden goldenFile) {
	wr.Metrics = map[string]summary{}
	ops := append(append([]opResult(nil), wr.untraced...), wr.traced...)
	wr.Digests = map[string]string{}
	checks := map[string]int{}
	for _, res := range ops {
		wr.Attempted += res.Units
		wr.Failed += res.Failed
		if wr.err != nil {
			continue
		}
		if o.update {
			golden.record(res, o.quick)
		}
		seed := strconv.FormatUint(res.Seed, 10)
		check, err := golden.check(res, o.quick)
		if prev, ok := wr.Digests[seed]; err == nil && ok && prev != res.Digest {
			err = fmt.Errorf("%s: two runs of seed %s wrote different CSV bytes (%s, %s)", wr.Name, seed, prev, res.Digest)
		}
		if err != nil {
			wr.err = err
			continue
		}
		checks[check]++
		wr.Units, wr.Digests[seed] = res.Units, res.Digest
	}
	switch {
	case checks["structural"] == 0:
		wr.OutputCheck = "golden"
	case checks["golden"] == 0:
		wr.OutputCheck = "structural"
	default:
		wr.OutputCheck = fmt.Sprintf("golden (%d runs), structural (%d runs)", checks["golden"], checks["structural"])
	}
	if wr.err != nil {
		// Wrong bytes make every unit of the workload a failure.
		wr.OutputCheck = "failed: " + wr.err.Error()
		wr.Failed = max(wr.Attempted, 1)
	}
	wr.Attempted = max(wr.Attempted, 1)
	wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)

	col := func(f func(opResult) float64) []float64 {
		vs := make([]float64, len(wr.untraced))
		for i, res := range wr.untraced {
			vs[i] = f(res)
		}
		return vs
	}
	wr.Metrics["wall_s"] = summarize("s", col(func(r opResult) float64 { return r.WallS }))
	wr.Metrics["cpu_s"] = summarize("s", col(func(r opResult) float64 { return r.CPUS }))
	wr.Metrics["setup_s"] = summarize("s", wr.setups)
	wr.Metrics["realizations_per_s"] = summarize("1/s", col(func(r opResult) float64 { return float64(r.Units) / r.WallS }))
	wr.Metrics["alloc_mb"] = summarize("MB", col(func(r opResult) float64 { return r.AllocMB }))

	if len(wr.traced) == 0 {
		return
	}
	wr.Layers = map[string]summary{}
	for _, def := range perLayer {
		vs := make([]float64, len(wr.traced))
		for i, res := range wr.traced {
			vs[i] = res.Layers[def.name]
			if def.name == "sim.trace_overhead_frac" {
				// Against the untraced op of the same round, hence seed.
				vs[i] = (res.WallS - wr.untraced[i].WallS) / wr.untraced[i].WallS
			}
		}
		wr.Layers[def.name] = summarize(def.unit, vs)
	}
}

// report prints every metric by name with its unit.
func report(w io.Writer, out results) {
	h := out.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s kernel=%s rev=%s loadavg1=%.2f→%.2f tmpfs=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.Kernel, h.GitRevision, h.LoadAvgStart, h.LoadAvgEnd, h.TempFS)
	fmt.Fprintf(w, "seed=%d quick=%v\n", out.Seed, out.Quick)
	line := func(name string, s summary) {
		fmt.Fprintf(w, "  %-34s %-6s median=%-12.6g min=%-12.6g max=%-12.6g n=%d\n", name, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
	for _, wr := range out.Workloads {
		fmt.Fprintf(w, "\n%s  (%s, %v)\n", wr.Name, wr.Spec, wr.Size)
		fmt.Fprintf(w, "  output_check: %s  units=%d  failed_frac=%g (%d/%d)\n", wr.OutputCheck, wr.Units, wr.FailedFrac, wr.Failed, wr.Attempted)
		for _, def := range endToEnd {
			line(def.name, wr.Metrics[def.name])
		}
		if wr.Layers == nil {
			continue
		}
		for _, def := range perLayer {
			line(def.name, wr.Layers[def.name])
		}
	}
}

// driverLine prints the one-line result the benchmark driver parses.
func driverLine(w io.Writer, wr *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, def := range perLayer {
			metrics[def.name] = value{wr.Layers[def.name].Median, def.unit}
		}
	} else {
		for _, def := range endToEnd {
			metrics[def.name] = value{wr.Metrics[def.name].Median, def.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.err == nil, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
