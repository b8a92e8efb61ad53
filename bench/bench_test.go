package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scalefree/internal/sim"
)

// The harness re-executes itself for every op. Under `go test` the
// executable is the test binary, so children are recognised by this
// variable and run main() instead of the tests.
const childEnv = "SCALEFREE_BENCH_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// quickPass runs every workload once at the -quick sizes, traced, and
// returns the results file, the exit code, the report and the -out directory.
func quickPass(t *testing.T) (results, int, string, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	var out bytes.Buffer
	code, err := run([]string{"-quick", "-reps", "1", "-trace", "1", "-out", dir, "-json", path}, &out)
	if err != nil {
		t.Logf("run: %v", err)
	}
	var res results
	if b, rerr := os.ReadFile(path); rerr == nil {
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
	}
	return res, code, out.String(), dir
}

func TestQuickPassReportsEveryMetric(t *testing.T) {
	res, code, out, dir := quickPass(t)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in results, want %d", len(res.Workloads), len(workloads))
	}
	if res.Host.NProc == 0 || res.Host.GoVersion == "" || res.Host.GOARCH == "" || res.Host.Kernel == "" {
		t.Errorf("host section incomplete: %+v", res.Host)
	}
	digests := map[string]string{}
	for _, w := range res.Workloads {
		if w.FailedFrac != 0 || w.OutputCheck != "golden" {
			t.Errorf("%s: failed_frac=%v output_check=%q", w.Name, w.FailedFrac, w.OutputCheck)
		}
		for _, def := range endToEnd {
			s, ok := w.Metrics[def.name]
			if !ok || s.Unit != def.unit || s.N == 0 || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, def.name, s)
			}
			if !strings.Contains(out, def.name) {
				t.Errorf("report does not print %s", def.name)
			}
		}
		for _, def := range perLayer {
			if s, ok := w.Layers[def.name]; !ok || s.Unit != def.unit || s.N == 0 {
				t.Errorf("%s: layer metric %s = %+v", w.Name, def.name, s)
			}
		}
		if got := w.Layers["search.allocs_per_query"].Median; got != 0 {
			t.Errorf("%s: search.allocs_per_query = %v, want 0", w.Name, got)
		}
		digests[w.Name] = w.Digests["2007"]
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if digests["records-dist"] == "" || digests["records-dist"] != digests["records-local"] {
		t.Errorf("records-dist wrote %q, records-local %q: the fleet changed the bytes", digests["records-dist"], digests["records-local"])
	}
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	golden, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	golden["quick"]["sweep-cm"].Digests["2007"] = strings.Repeat("0", 64)
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := writeJSONFile(path, golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	code, err := run([]string{"-quick", "-reps", "1", "-workload", "sweep-cm", "-golden", path, "-out", dir}, &out)
	if code == 0 || err == nil {
		t.Fatalf("exit code %d, err %v: a wrong digest must fail the run", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int64
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != last.Attempted {
		t.Errorf("result line %+v: want correct=false and every unit failed", last)
	}
}

// TestOpWritesWhatTheCLIWrites pins "the harness measures what the CLI
// does": the op's CSVs for (fig7, SmokeScale) are the bytes
// `experiments -exp fig7 -scale smoke` writes.
func TestOpWritesWhatTheCLIWrites(t *testing.T) {
	dir := t.TempDir()
	exe := filepath.Join(dir, "experiments")
	build := exec.Command("go", "build", "-o", exe, "./cmd/experiments")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build cmd/experiments: %v\n%s", err, out)
	}
	cliDir := filepath.Join(dir, "cli")
	cli := exec.Command(exe, "-exp", "fig7", "-scale", "smoke", "-seed", "2007", "-plot=false", "-outdir", cliDir)
	if out, err := cli.CombinedOutput(); err != nil {
		t.Fatalf("experiments: %v\n%s", err, out)
	}
	opDir := filepath.Join(dir, "op")
	if _, _, err := runOp(workload{name: "cli-pin", spec: "fig7"}, sim.SmokeScale, 2007, opDir, time.Now(), nil, false); err != nil {
		t.Fatal(err)
	}
	list := func(d string) []string {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	names := list(cliDir)
	if got := list(opDir); strings.Join(got, " ") != strings.Join(names, " ") || len(names) == 0 {
		t.Fatalf("op left %v, CLI left %v", got, names)
	}
	for _, name := range names {
		want, _ := os.ReadFile(filepath.Join(cliDir, name))
		got, _ := os.ReadFile(filepath.Join(opDir, name))
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the op and the CLI", name)
		}
	}
}

// TestBenchmarkJSONMatchesTheHarness keeps the driver's contract file and
// the harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, def := range want {
			better := "lower"
			if def.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != better || (bounded && g.Bound != def.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, g, def)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

func TestVerdicts(t *testing.T) {
	def := metricDef{name: "wall_s", unit: "s", bound: 0.10}
	s := func(min, med, max float64) summary { return summary{Unit: "s", Median: med, Min: min, Max: max, N: 3} }
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{s(0.99, 1, 1.01), s(0.99, 1.02, 1.03), "same"},
		{s(0.99, 1, 1.01), s(1.18, 1.2, 1.22), "worse"},
		{s(0.99, 1, 1.01), s(0.78, 0.8, 0.82), "better"},
		{s(0.8, 1, 1.3), s(0.9, 1.2, 1.4), "unresolved"},
	} {
		if got, _ := verdict(def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	def.higher = true
	if got, _ := verdict(def, s(99, 100, 101), s(79, 80, 81)); got != "worse" {
		t.Errorf("a throughput that fell 20%% is %s, want worse", got)
	}
}
