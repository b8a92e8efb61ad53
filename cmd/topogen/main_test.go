package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAllModels(t *testing.T) {
	t.Parallel()
	cases := []struct {
		model string
		n     int
	}{
		{"pa", 500}, {"cm", 500}, {"hapa", 500}, {"dapa", 300},
		{"grn", 500}, {"mesh", 100}, {"er", 200}, {"ws", 200},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.model, func(t *testing.T) {
			t.Parallel()
			g, err := generate(tc.model, tc.n, 2, 20, 2.5, 4, 0, 10, 0.1, 1)
			if err != nil {
				t.Fatalf("generate(%s): %v", tc.model, err)
			}
			if g.N() < tc.n/2 {
				t.Fatalf("%s: only %d nodes", tc.model, g.N())
			}
		})
	}
}

func TestGenerateUnknownModel(t *testing.T) {
	t.Parallel()
	if _, err := generate("bogus", 100, 2, 0, 2.5, 4, 0, 10, 0.1, 1); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a, err := generate("pa", 400, 2, 30, 2.5, 4, 0, 10, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate("pa", 400, 2, 30, 2.5, 4, 0, 10, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatalf("same seed produced %d vs %d edges", a.M(), b.M())
	}
}

func TestGenerateMeshSizing(t *testing.T) {
	t.Parallel()
	// -n 10 gives a ceil(sqrt(10))=4-side grid -> 16 nodes.
	g, err := generate("mesh", 10, 2, 0, 2.5, 4, 0, 10, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatalf("mesh N = %d, want 16", g.N())
	}
}

func TestDOTFormat(t *testing.T) {
	t.Parallel()
	g, err := generate("pa", 50, 2, 10, 2.5, 4, 0, 10, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "pa"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph \"pa\" {") {
		t.Errorf("DOT header missing:\n%.200s", buf.String())
	}
}

// TestRunBadFormatKeepsOutput pins that a bad -format is refused before
// -o is created: an existing file keeps its bytes.
func TestRunBadFormatKeepsOutput(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "g.edges")
	const keep = "0 1\n"
	if err := os.WriteFile(path, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-model", "pa", "-n", "50", "-format", "bogus", "-o", path}, &buf); err == nil {
		t.Fatal("-format bogus should fail")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != keep {
		t.Fatalf("-o file is now %q, want %q", got, keep)
	}
}

func TestRunWritesEdgeList(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "g.edges")
	var stdout bytes.Buffer
	if err := run([]string{"-model", "pa", "-n", "50", "-o", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "pa", "-n", "50"}, &stdout); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, stdout.Bytes()) {
		t.Fatalf("-o wrote %d bytes, stdout %d; want the same non-empty edge list", len(got), stdout.Len())
	}
}
