package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// goldenEntry pins one workload's output at one size: the figure shapes
// and unit count hold for every seed, the digests for the seeds listed.
type goldenEntry struct {
	Units   int64             `json:"units"`
	Shape   []figShape        `json:"shape"`
	Digests map[string]string `json:"digests"` // seed → SHA-256 of the CSVs
}

// goldenFile maps size ("full", "quick") → workload → entry.
type goldenFile map[string]map[string]*goldenEntry

func sizeKey(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// check verifies one op's output. It returns which check applied:
// "golden" when a digest is pinned for (workload, size, seed) on amd64,
// else "structural" — other architectures may fuse multiply-adds and
// change float bytes, and other seeds have no pinned bytes.
func (g goldenFile) check(res opResult, quick bool) (string, error) {
	e := g[sizeKey(quick)][res.Workload]
	if e == nil {
		return "", fmt.Errorf("%s: no golden entry at size %s", res.Workload, sizeKey(quick))
	}
	if res.Units != e.Units {
		return "", fmt.Errorf("%s: %d units, golden has %d", res.Workload, res.Units, e.Units)
	}
	if len(res.Shape) != len(e.Shape) {
		return "", fmt.Errorf("%s: %d figures, golden has %d", res.Workload, len(res.Shape), len(e.Shape))
	}
	for i, sh := range res.Shape {
		if !sh.Finite {
			return "", fmt.Errorf("%s: %s holds a NaN or Inf", res.Workload, sh.ID)
		}
		if sh != e.Shape[i] {
			return "", fmt.Errorf("%s: figure %d is %+v, golden has %+v", res.Workload, i, sh, e.Shape[i])
		}
	}
	want, ok := e.Digests[strconv.FormatUint(res.Seed, 10)]
	if !ok || runtime.GOARCH != "amd64" {
		return "structural", nil
	}
	if res.Digest != want {
		return "", fmt.Errorf("%s seed %d: CSV digest %s, golden has %s", res.Workload, res.Seed, res.Digest, want)
	}
	return "golden", nil
}

// record stores res as the golden output for its seed.
func (g goldenFile) record(res opResult, quick bool) {
	byName := g[sizeKey(quick)]
	if byName == nil {
		byName = map[string]*goldenEntry{}
		g[sizeKey(quick)] = byName
	}
	e := byName[res.Workload]
	if e == nil {
		e = &goldenEntry{Digests: map[string]string{}}
		byName[res.Workload] = e
	}
	e.Units, e.Shape = res.Units, res.Shape
	e.Digests[strconv.FormatUint(res.Seed, 10)] = res.Digest
}
