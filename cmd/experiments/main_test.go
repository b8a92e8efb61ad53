package main

import (
	"bytes"
	"flag"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRunList(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig1a", "fig12", "table1", "strategies", "replication", "churn"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing missing %s", id)
		}
	}
}

func TestRunUnknownScale(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-scale", "galactic"}, &buf); err == nil {
		t.Fatal("unknown scale should fail")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-exp", "fig99"}, &buf); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestRunSingleExperimentWritesCSV(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-exp", "fig1c", "-outdir", dir, "-plot=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1c.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 4 {
		t.Errorf("fig1c CSV should have header + data rows:\n%s", data)
	}
	if !strings.Contains(lines[0], "series") {
		t.Errorf("missing header: %s", lines[0])
	}
}

// TestRunDESModeWritesCSV pins that -loss reaches the DES specs under a
// plain -exp: every desflood figure is written with one series.
func TestRunDESModeWritesCSV(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	args := []string{"-loss", "0.05", "-exp", "desflood", "-outdir", dir, "-plot=false"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"desflood-hits.csv", "desflood-time.csv", "desflood-msgs.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing %s: %v", f, err)
			continue
		}
		series := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
			series[line[:strings.IndexByte(line, ',')]] = true
		}
		if len(series) != 1 {
			t.Errorf("%s: -loss 0.05 published series %v, want one", f, series)
		}
	}
}

// TestRunDESModeDefaultsToDESSpecs runs the DES spec family, the set that
// -exp desflood,deskwalk,desfail names, with its knobs set: every DES
// figure is written.
func TestRunDESModeDefaultsToDESSpecs(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	args := []string{"-exp", "desflood,deskwalk,desfail", "-loss", "0.2", "-latency-jitter", "2", "-outdir", dir, "-plot=false"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"desflood-hits.csv", "deskwalk-hits.csv", "desfail-node.csv", "desfail-link.csv", "desfail-kwalk.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestRunBadMode(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	for _, mode := range []string{"quantum", "des"} {
		if err := run([]string{"-mode", mode}, &buf); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Fatalf("-mode %s: err %v, want an unknown mode", mode, err)
		}
	}
}

func TestRunBadLoss(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	for _, args := range [][]string{
		{"-exp", "desflood,deskwalk,desfail", "-loss", "1.5", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desflood", "-loss", "1.5", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desflood", "-loss", "NaN", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desfail", "-fail-frac", "NaN", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desfail", "-fail-frac", "0.2", "-fail-mtbf", "NaN", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desfail", "-fail-frac", "0.3", "-fail-mtbf", "Inf", "-outdir", t.TempDir(), "-plot=false"},
	} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("%v: out-of-range DES knob should fail", args)
		}
	}
}

// A negative, NaN or infinite per-edge delay is refused in every mode but
// worker (whose knobs arrive in the lease), before anything runs.
func TestRunBadLatency(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	for _, args := range [][]string{
		{"-exp", "desflood,deskwalk,desfail", "-latency-base", "-1", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desflood", "-latency-jitter", "NaN", "-outdir", t.TempDir(), "-plot=false"},
		{"-exp", "desflood", "-latency-base", "+Inf", "-outdir", t.TempDir(), "-plot=false"},
		{"-mode", "coordinator", "-coord-addr", "127.0.0.1:0", "-exp", "desflood", "-latency-jitter", "-0.5"},
	} {
		if err := run(args, &buf); err == nil || !strings.Contains(err.Error(), "-latency-") {
			t.Fatalf("%v: err %v, want the bad latency flag refused", args, err)
		}
	}
}

func TestRunCommaSeparatedExperiments(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-exp", "table2, fig1c", "-outdir", dir, "-plot=true"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table2.csv", "fig1c.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	if !strings.Contains(buf.String(), "Table II") && !strings.Contains(buf.String(), "locality") {
		// RenderTable output should mention the artifact in some form.
		t.Logf("plot output: %.200s", buf.String())
	}
}

// TestRunRejectsRepeatedExperiment: a spec listed twice would run twice
// over one journal path, so -exp refuses it by name before running anything.
func TestRunRejectsRepeatedExperiment(t *testing.T) {
	t.Parallel()
	for _, exp := range []string{"table2,table2", "fig1c, table2, fig1c"} {
		dir := t.TempDir()
		var buf strings.Builder
		err := run([]string{"-exp", exp, "-outdir", dir, "-plot=false"}, &buf)
		want := strings.TrimSpace(strings.Split(exp, ",")[0])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("-exp %q: err %v, want the repeated %s refused by name", exp, err, want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) > 0 {
			t.Errorf("-exp %q wrote %d file(s) before refusing", exp, len(entries))
		}
	}
}

func TestRunCleanSuccessLeavesNoJournalOrTemp(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-exp", "fig1c", "-outdir", dir, "-plot=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig1c.csv")); err != nil {
		t.Fatal(err)
	}
	// Checkpointing is on by default, but a clean run must tidy up: no
	// journals and no half-renamed .tmp-* files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".journal") || strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("clean run left %s behind", e.Name())
		}
	}
}

func TestRunResumeWithoutJournalIsFreshRun(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-exp", "fig1c", "-outdir", dir, "-plot=false", "-resume"}, &buf); err != nil {
		t.Fatalf("-resume on an empty outdir should run fresh: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig1c.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunResumeRejectsCorruptJournal(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig1c.journal"), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-exp", "fig1c", "-outdir", dir, "-plot=false", "-resume"}, &buf); err == nil {
		t.Fatal("resume from a corrupt journal should fail loudly, not silently recompute")
	}
}

func TestRunRejectsNegativeSupervisionFlags(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-retries", "-1"}, &buf); err == nil {
		t.Fatal("-retries -1 should fail")
	}
	if err := run([]string{"-max-failed", "-1"}, &buf); err == nil {
		t.Fatal("-max-failed -1 should fail")
	}
	if err := run([]string{"-workers", "-3", "-exp", "fig1c", "-outdir", t.TempDir(), "-plot=false"}, &buf); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("-workers -3: err %v, want the flag refused by name", err)
	}
	// A negative stall timeout used to disable the watchdog like 0 does.
	if err := run([]string{"-stall-timeout", "-1s", "-exp", "fig1c", "-outdir", t.TempDir(), "-plot=false"}, &buf); err == nil || !strings.Contains(err.Error(), "-stall-timeout") {
		t.Fatalf("-stall-timeout -1s: err %v, want the flag refused by name", err)
	}
}

func TestRunRejectsNegativeEstimatorFlags(t *testing.T) {
	t.Parallel()
	for _, flag := range []string{"-bc-pivots", "-path-landmarks", "-path-pairs", "-walk-cap"} {
		var buf strings.Builder
		if err := run([]string{flag, "-1"}, &buf); err == nil {
			t.Errorf("%s -1 should fail", flag)
		}
	}
}

func TestRunEstimatorPathSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var buf strings.Builder
	args := []string{
		"-exp", "table1", "-path-landmarks", "4", "-path-pairs", "50",
		"-outdir", dir, "-plot=true",
	}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) < 5 {
		t.Errorf("table1 CSV should have header + data rows:\n%s", data)
	}
	// The rendered table carries the figure notes, which must document the
	// landmark estimator when it is active.
	if !strings.Contains(buf.String(), "landmark") {
		t.Errorf("estimator run output missing landmark documentation: %.300s", buf.String())
	}
}

func TestRunCoordinatorModeRequiresAddr(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-mode", "coordinator"}, &buf); err == nil {
		t.Fatal("coordinator mode without -coord-addr should fail")
	}
	if err := run([]string{"-mode", "worker"}, &buf); err == nil {
		t.Fatal("worker mode without -coord-addr should fail")
	}
	if err := run([]string{"-mode", "coordinator", "-coord-addr", ":0", "-lease-ttl", "-1s"}, &buf); err == nil {
		t.Fatal("negative -lease-ttl should fail")
	}
	// A lease lapses after -lease-ttl without renewal, so a heartbeat at
	// least that long would reissue every lease before its first renewal.
	// (table2 runs locally even in coordinator mode, so a missed refusal
	// fails fast instead of waiting for workers.)
	for _, hb := range []string{"5s", "1s"} {
		err := run([]string{"-mode", "coordinator", "-coord-addr", "127.0.0.1:0",
			"-lease-ttl", "1s", "-heartbeat", hb, "-exp", "table2", "-outdir", t.TempDir(), "-plot=false"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-heartbeat") || !strings.Contains(err.Error(), "-lease-ttl") {
			t.Fatalf("-heartbeat %s -lease-ttl 1s: err %v, want both flags named", hb, err)
		}
	}
}

// freeLocalAddr grabs an ephemeral localhost port for a
// coordinator/worker pair to meet on.
func freeLocalAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestRunDistributedCoordinatorWorkerTCP is the CLI end to end over real
// TCP: one coordinator process-equivalent and one worker, meeting on a
// localhost port, distributing fig1c — and the CSVs must be byte-identical
// to a plain local run, with no journals or temp files left behind.
func TestRunDistributedCoordinatorWorkerTCP(t *testing.T) {
	t.Parallel()
	local := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-exp", "fig1c", "-outdir", local, "-plot=false"}, &buf); err != nil {
		t.Fatal(err)
	}

	addr := freeLocalAddr(t)
	dist := t.TempDir()
	workerDone := make(chan error, 1)
	go func() {
		var wbuf strings.Builder
		workerDone <- run([]string{"-mode", "worker", "-coord-addr", addr}, &wbuf)
	}()
	var cbuf strings.Builder
	err := run([]string{
		"-mode", "coordinator", "-coord-addr", addr,
		"-exp", "fig1c", "-outdir", dist, "-plot=false",
	}, &cbuf)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	select {
	case werr := <-workerDone:
		if werr != nil {
			t.Errorf("worker: %v", werr)
		}
	case <-time.After(60 * time.Second):
		t.Error("worker did not exit after coordinator shutdown")
	}

	want, err := os.ReadFile(filepath.Join(local, "fig1c.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dist, "fig1c.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("distributed fig1c.csv differs from local run (%d vs %d bytes)", len(got), len(want))
	}
	entries, err := os.ReadDir(dist)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".journal") || strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("distributed run left %s behind", e.Name())
		}
	}
}

// TestMainHelpExitsZero runs main in a child copy of the test binary:
// -h prints the usage and exits 0.
func TestMainHelpExitsZero(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		// Child: the arguments after "--" are the command line.
		os.Args = append([]string{"experiments"}, args...)
		main()
		return
	}
	t.Parallel()
	out, err := exec.Command(os.Args[0], "-test.run=^TestMainHelpExitsZero$", "--", "-h").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Usage of experiments") {
		t.Errorf("experiments -h: %v, output:\n%s", err, out)
	}
}

// TestRunReportsSpecUtilisation runs a spec in a child copy of the test
// binary and parses its "done in" line: the spec's wall time, its CPU
// seconds and the utilisation cpu / (wall × GOMAXPROCS) it reports must
// agree with each other and with the child's core count.
func TestRunReportsSpecUtilisation(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"experiments"}, args...)
		main()
		return
	}
	t.Parallel()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunReportsSpecUtilisation$", "--",
		"-exp", "fig1c", "-outdir", t.TempDir(), "-plot=false")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments -exp fig1c: %v\n%s", err, stderr.String())
	}
	line := regexp.MustCompile(`(?m)^fig1c done in (\S+) \(1 panels; cpu ([0-9.]+)s, ([0-9.]+) of ([0-9]+) cores\)$`).FindStringSubmatch(stderr.String())
	if line == nil {
		t.Fatalf("no parsable \"fig1c done in\" line in:\n%s", stderr.String())
	}
	wall, err := time.ParseDuration(line[1])
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := strconv.ParseFloat(line[2], 64)
	util, _ := strconv.ParseFloat(line[3], 64)
	cores, _ := strconv.Atoi(line[4])
	if cores != runtime.GOMAXPROCS(0) {
		t.Errorf("reported %d cores, GOMAXPROCS is %d", cores, runtime.GOMAXPROCS(0))
	}
	if cpu <= 0 || util <= 0 {
		t.Errorf("cpu %vs, utilisation %v: a spec that ran must have used the CPU", cpu, util)
	}
	if want := cpu / (wall.Seconds() * float64(cores)); math.Abs(util-want) > 0.05 {
		t.Errorf("utilisation %v, want cpu / (wall × cores) = %.3f (%s)", util, want, line[0])
	}
}
