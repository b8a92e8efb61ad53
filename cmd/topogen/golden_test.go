package main

import (
	"bytes"
	"flag"
	"hash/fnv"
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

// TestOutputDigests pins the bytes topogen writes — the edge list and
// the DOT rendering — for every model on one fixed seed at n = 300,
// kc = 20, as one FNV-64a digest per (model, format). The summary golden
// above covers what it prints; this covers what it writes.
func TestOutputDigests(t *testing.T) {
	t.Parallel()
	want := map[string]uint64{
		"pa/edges": 0xb10df1eea87df048, "pa/dot": 0x6629ed2a2078092c,
		"cm/edges": 0x838cf061cc4a9356, "cm/dot": 0x98fff8b554d58cea,
		"hapa/edges": 0x89c3623877bdbbb4, "hapa/dot": 0x92aa353317617138,
		"dapa/edges": 0x4400b7e77933e82f, "dapa/dot": 0x1d8560f8f2e3e312,
		"grn/edges": 0xcb3325d929d36594, "grn/dot": 0x86842d10db66552a,
		"mesh/edges": 0xd2d8079462ef9296, "mesh/dot": 0xa808ac4dbefebad7,
		"er/edges": 0x0b6c05623265464a, "er/dot": 0x651521053ba91185,
		"ws/edges": 0x71f67ff2849df137, "ws/dot": 0x6b8ee032d4b55ba0,
	}
	for _, model := range []string{"pa", "cm", "hapa", "dapa", "grn", "mesh", "er", "ws"} {
		for _, format := range []string{"edges", "dot"} {
			var buf bytes.Buffer
			args := []string{"-model", model, "-n", "300", "-kc", "20", "-seed", "11", "-format", format}
			if err := run(args, &buf); err != nil {
				t.Fatalf("%s/%s: %v", model, format, err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			key := model + "/" + format
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: digest %#016x, want %#016x", key, got, want[key])
			}
		}
	}
}
