package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden summaries under testdata/")

// TestSummaryGolden pins the structural summary topogen prints after
// writing a topology, on fixed seeds, for a grown overlay with a cutoff,
// a DAPA overlay over its GRN substrate and a disconnected ER graph.
func TestSummaryGolden(t *testing.T) {
	t.Parallel()
	var got strings.Builder
	for _, tc := range []struct {
		model string
		n     int
	}{{"pa", 700}, {"hapa", 500}, {"dapa", 300}, {"er", 200}} {
		g, err := generate(tc.model, tc.n, 2, 20, 2.5, 4, 0, 10, 0.1, 11)
		if err != nil {
			t.Fatalf("generate(%s): %v", tc.model, err)
		}
		f, err := os.CreateTemp(t.TempDir(), "summary")
		if err != nil {
			t.Fatal(err)
		}
		printSummary(f, g)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(tc.model + ": " + string(b))
	}
	path := filepath.Join("testdata", "summary.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("summary changed\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
