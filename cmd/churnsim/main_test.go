package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := run([]string{"-n", "300", "-events", "200", "-probes", "4", "-sources", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"churn: N0=300", "event | alive", "totals: joins="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	var buf strings.Builder
	err := run([]string{"-n", "300", "-events", "100", "-probes", "2", "-sources", "0", "-csv", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace CSV too short:\n%s", data)
	}
	if !strings.HasPrefix(lines[0], "event,alive,mean_degree") {
		t.Errorf("header: %s", lines[0])
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	// Each case is refused before any work, with an error naming what
	// was wrong.
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-pjoin", "1.5"}, "pjoin"},
		{[]string{"-pjoin", "NaN"}, "pjoin"},
		{[]string{"-events", "0"}, "events"},
		{[]string{"-probes", "0"}, "probes"},    // was an integer divide by zero
		{[]string{"-probes", "-3"}, "probes"},   // was a negative probe interval
		{[]string{"-sources", "-3"}, "sources"}, // was an all-zero NF column
		{[]string{"-ttl", "-1"}, "ttl"},         // was a search error after the churn
		{[]string{"-join", "teleport"}, "join"},
		{[]string{"-repair", "duct-tape"}, "repair"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-n", "2", "-m", "2"}, "InitialN"}, // too small for the seed clique
	}
	for _, c := range cases {
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: got error %v, want one naming %q", c.args, err, c.want)
		}
	}
}

func TestRunUniformNoRepairCrash(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := run([]string{
		"-n", "300", "-events", "150", "-probes", "3", "-sources", "0",
		"-join", "uniform", "-repair", "none", "-crash",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "repair-links=0") {
		t.Errorf("no-repair run should create no repair links:\n%s", buf.String())
	}
}

// TestMainHelpExitsZero runs main in a child copy of the test binary:
// -h prints the usage and exits 0.
func TestMainHelpExitsZero(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		// Child: the arguments after "--" are the command line.
		os.Args = append([]string{"churnsim"}, args...)
		main()
		return
	}
	t.Parallel()
	out, err := exec.Command(os.Args[0], "-test.run=^TestMainHelpExitsZero$", "--", "-h").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "Usage of churnsim") {
		t.Errorf("churnsim -h: %v, output:\n%s", err, out)
	}
}
