package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalefree"
)

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
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	g, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: 200, M: 2}, scalefree.NewRNG(3))
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

func TestRunSmoke(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	if err := run([]string{"-n", "300", "-ttl", "3", "-sources", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"topology: nodes=300", "fl hits", "nf hits", "rw hits"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunValidation pins that each bad flag is refused before any work,
// with an error naming it. The -alg case points -in at a missing file, so
// only a check made before loading can name the algorithm.
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
		{[]string{"-n", "50", "-sources", "0"}, "sources"}, // was a NaN table
		{[]string{"-n", "50", "-ttl", "-2"}, "ttl"},        // was a makeslice panic
		{[]string{"-n", "50", "-kmin", "-1"}, "kmin"},      // silently ran with kmin=m
		{[]string{"-in", empty}, empty},                    // was an Intn panic
		{[]string{"-in", missing, "-alg", "bogus"}, "algorithm"},
	}
	for _, c := range cases {
		var buf strings.Builder
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: got error %v, want one naming %q", c.args, err, c.want)
		}
	}
}
