package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"scalefree"
	"scalefree/internal/sim"
)

func TestRunInlineReport(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := run([]string{"-n", "600", "-m", "2", "-kc", "20", "-ks-trials", "5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== size ==", "nodes=600",
		"== degree distribution ==", "power-law fit",
		"load fairness",
		"== structure ==", "effective diameter", "rich club",
		"== robustness", "site percolation",
		"== search ==", "kmin=2", "fl hits",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunNoRobust(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := run([]string{"-n", "400", "-robust=false", "-ks-trials", "0"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "== robustness") {
		t.Error("robustness section should be skipped")
	}
}

// TestRunSearchSection pins the search section's contract: it comes last,
// draws from its own stream (so skipping the robustness probe, which draws
// from the report's stream, leaves it unchanged), and fans NF out to the
// minimum degree floored at 1 — an edge list with an isolated node gets
// kmin=1.
func TestRunSearchSection(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, []byte("# nodes 5\n0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	search := func(args ...string) string {
		t.Helper()
		var buf strings.Builder
		if err := run(append([]string{"-in", path, "-ks-trials", "0"}, args...), &buf); err != nil {
			t.Fatal(err)
		}
		_, section, ok := strings.Cut(buf.String(), "\n== search ==\n")
		if !ok || strings.Contains(section, "==") {
			t.Fatalf("search is not the last section:\n%s", buf.String())
		}
		return section
	}
	with := search("-robust=true")
	if without := search("-robust=false"); with != without {
		t.Errorf("the robustness probe moved the search section:\n%s\nvs\n%s", with, without)
	}
	if !strings.HasPrefix(with, "100 sources, kmin=1;") || strings.Count(with, "\n") != 12 {
		t.Errorf("search section = %q, want 100 sources, kmin=1 and ten tau rows", with)
	}
}

func TestRunFromEdgeFile(t *testing.T) {
	t.Parallel()
	path, _ := writePAEdges(t, 300, 5)
	var buf strings.Builder
	if err := run([]string{"-in", path, "-robust=false", "-ks-trials", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nodes=300") {
		t.Error("report should describe the loaded graph")
	}
}

func TestRunMissingFile(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-in", "/nonexistent.edges"}, &buf); err == nil {
		t.Fatal("missing input should fail")
	}
}

// TestRunEmptyEdgeList refuses a node-less topology before any analysis,
// naming -in, instead of failing inside the robustness probe.
func TestRunEmptyEdgeList(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "empty.edges")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	err := run([]string{"-in", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "in "+path) || !strings.Contains(err.Error(), "no nodes") {
		t.Fatalf("got error %v, want one naming -in and the empty edge list", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused run printed a report:\n%s", buf.String())
	}
}

func TestLoadInlinePA(t *testing.T) {
	t.Parallel()
	g, err := load("", 500, 2, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 || g.MaxDegree() > 20 {
		t.Fatalf("N=%d maxdeg=%d", g.N(), g.MaxDegree())
	}
}

func TestLoadFromFile(t *testing.T) {
	t.Parallel()
	path, g := writePAEdges(t, 200, 3)
	got, err := load(path, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 200 || got.M() != g.M() {
		t.Fatalf("loaded N=%d M=%d, want %d/%d", got.N(), got.M(), g.N(), g.M())
	}
}

func TestLoadMissingFile(t *testing.T) {
	t.Parallel()
	if _, err := load("/nonexistent/file.edges", 0, 0, 0, 0); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestRunValidation pins that each bad input is refused before any report
// is printed, with an error naming what is wrong.
func TestRunValidation(t *testing.T) {
	t.Parallel()
	empty := filepath.Join(t.TempDir(), "empty.edges")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.edges")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "1", "-m", "2"}, "n=1"},
		{[]string{"-n", "50", "-m", "0"}, "m=0"},
		{[]string{"-n", "50", "-m", "2", "-kc", "1"}, "kc=1"},
		{[]string{"-in", empty}, empty},
		{[]string{"-in", missing}, missing},
	}
	for _, c := range cases {
		var buf strings.Builder
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: got error %v, want one naming %q", c.args, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("args %v: refused run printed a report:\n%s", c.args, buf.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("bad flag should fail")
	}
	// A negative trial count used to skip the bootstrap as 0 does.
	if err := run([]string{"-n", "200", "-robust=false", "-ks-trials", "-1"}, &buf); err == nil || !strings.Contains(err.Error(), "ks-trials") {
		t.Fatalf("-ks-trials -1: err %v, want the flag refused by name", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused run printed a report:\n%s", buf.String())
	}
}

func TestRunJournalSubcommand(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "fig9.journal")
	j, err := sim.OpenJournal(path, "fig9", 7, sim.Scale{Realizations: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.SlotRecord{Kind: 1, Stream: 0xABC, Sub: 0xDEF, Realization: 0, Payload: []byte{1, 2, 3, 4}}
	if _, err := j.Accept(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkRealizationDone(0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := run([]string{"journal", "-keys", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"spec=fig9 seed=7",
		"records=1 sweep-slots=1",
		"realization 0: 1 record(s) done",
		"done markers: [0]",
		"clean:",
		"(kind=sweep-slots, stream=0xabc, sub=0xdef, r=0) 4B",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("journal report missing %q in:\n%s", want, out)
		}
	}

	// Tear the tail: the report must call it out without repairing it.
	full := rec.MarshalBinary()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)
	buf.Reset()
	if err := run([]string{"journal", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TORN TAIL") {
		t.Errorf("torn journal not flagged:\n%s", buf.String())
	}
	if got := fileSize(t, path); got != sizeBefore {
		t.Errorf("inspection changed the file size: %d -> %d", sizeBefore, got)
	}
}

func TestRunJournalSubcommandErrors(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"journal"}, &buf); err == nil {
		t.Fatal("journal with no file should fail")
	}
	if err := run([]string{"journal", filepath.Join(t.TempDir(), "missing.journal")}, &buf); err == nil {
		t.Fatal("journal on a missing file should fail")
	}
	notJournal := filepath.Join(t.TempDir(), "x.journal")
	if err := os.WriteFile(notJournal, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"journal", notJournal}, &buf); err == nil {
		t.Fatal("journal on a non-journal file should fail")
	}
}

// writePAEdges writes an n-node PA topology (m=2) as an edge list in a
// temporary directory and returns its path and the topology.
func writePAEdges(t *testing.T, n int, seed uint64) (string, *scalefree.FrozenTopology) {
	t.Helper()
	g, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: n, M: 2}, scalefree.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.edges")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestMainHelpExitsZero runs main in a child copy of the test binary:
// -h and journal -h print the usage and exit 0.
func TestMainHelpExitsZero(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		// Child: the arguments after "--" are the command line.
		os.Args = append([]string{"analyze"}, args...)
		main()
		return
	}
	t.Parallel()
	for _, args := range [][]string{{"-h"}, {"journal", "-h"}} {
		child := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelpExitsZero$", "--"}, args...)...)
		out, err := child.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "Usage of analyze") {
			t.Errorf("analyze %v: %v, output:\n%s", args, err, out)
		}
	}
}
