package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalefree"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata/")

// TestReportGolden pins the full report bytes on fixed seeds: an inline
// PA overlay with a cutoff, every section and the robustness probe on,
// and a disconnected ER graph read from an edge file. Every number in the
// report, and the order of the RNG draws behind the sampled ones, must
// survive a refactor of the read path unchanged.
func TestReportGolden(t *testing.T) {
	t.Parallel()
	edges := filepath.Join(t.TempDir(), "er.edges")
	er, err := scalefree.GenerateER(300, 240, scalefree.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := er.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"report_pa.golden", []string{"-n", "800", "-m", "2", "-kc", "25", "-seed", "3", "-ks-trials", "8"}},
		{"report_er.golden", []string{"-in", edges, "-seed", "5", "-ks-trials", "4"}},
	} {
		var buf strings.Builder
		if err := run(tc.args, &buf); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		checkGolden(t, filepath.Join("testdata", tc.golden), buf.String())
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: report changed\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
