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

func TestRunFromEdgeFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	g, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: 300, M: 2}, scalefree.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
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
