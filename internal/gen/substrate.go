package gen

import (
	"fmt"
	"math"

	"scalefree/internal/graph"
)

// This file implements the substrate networks DAPA grows its overlay on
// (paper §IV-B): the geometric random network (GRN) the paper uses for all
// simulations, and the 2-D regular mesh alternative it mentions.

// Point is a node position in the unit square.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// GRNConfig parameterizes a 2-D geometric random network: N nodes placed
// uniformly at random in the unit square, any two linked when their
// Euclidean distance is below R.
type GRNConfig struct {
	// N is the number of nodes.
	N int
	// R is the connection radius. If zero, it is derived from MeanDegree.
	R float64
	// MeanDegree, when R is zero, selects R so the expected degree is
	// MeanDegree (the paper uses k̄ = 10 with N_S = 2·10⁴).
	MeanDegree float64
}

// GRNRadiusForMeanDegree returns the connection radius giving expected mean
// degree kbar in a unit square with n uniformly placed nodes:
// kbar = n·π·R² (boundary effects ignored, as in the literature).
func GRNRadiusForMeanDegree(n int, kbar float64) float64 {
	if n <= 0 || !(kbar > 0) {
		return 0
	}
	return math.Sqrt(kbar / (float64(n) * math.Pi))
}

// GRNFrozen generates a geometric random network, built straight into a
// CSR snapshot, and returns it together with node coordinates. Pair
// search uses a uniform grid of cell size R, so construction is O(N·k̄)
// rather than O(N²). Points are placed in fixed-size chunks, one
// "grn.points" sub-stream per chunk, so the coordinates are identical for
// every Build.Workers value; the radius scan consumes no randomness.
//
// GRNs have Poissonian degree distributions P(k) = e^-k̄ k̄^k / k!; with
// k̄ = 10 the network has a giant component spanning nearly all nodes,
// which is what DAPA's discovery protocol relies on.
//
// Every chunk's radius scan emits its (i, j) pairs into a
// graph.CSRBuilder chunk buffer, and the parallel count/scatter finalize
// lays them out in chunk order — node by node, as a serial scan adding
// each pair to a Graph would insert them — so the snapshot is identical
// for every Workers value. The scan produces each unordered pair once and
// no self-loops, so no cleanup pass runs. Build.Arena, when set, recycles
// the build's transient buffers, and the result refills the arrays of the
// snapshot retired into it (CSRArena.Recycle) where they fit.
func GRNFrozen(cfg GRNConfig, b Build) (*graph.Frozen, []Point, error) {
	grid, err := grnGridFor(cfg, b)
	if err != nil {
		return nil, nil, err
	}
	cb := graph.NewCSRBuilder(cfg.N, chunks(cfg.N), b.Arena)
	b.forChunks(cfg.N, func(chunk, lo, hi int) {
		var nbr []int32
		for i := lo; i < hi; i++ {
			nbr = grid.scanNode(i, nbr[:0])
			for _, j := range nbr {
				cb.Edge(chunk, int32(i), j)
			}
		}
	})
	// Emission is done with the spatial hash; recycle its tables before
	// finalize so the count/scatter scratch can reuse the memory.
	grid.recycle(b.Arena)
	return cb.Finalize(b.workers(), false), grid.pts, nil
}

// grnGrid is GRNFrozen's uniform spatial hash, which the tests' serial
// Graph-based reference scans too: cell size >= r, so candidate pairs
// live in the same or adjacent cells. Buckets are built by counting sort,
// so each cell lists its nodes in ascending ID order — the same order the
// historical append-based build produced.
type grnGrid struct {
	pts      []Point
	cells    int
	cellSize float64
	start    []int32
	bucket   []int32
	r2       float64
}

// grnGridFor validates cfg, places the points (chunk c drawing from the
// (seed, realization, "grn.points", c) sub-stream), and indexes them.
func grnGridFor(cfg GRNConfig, b Build) (*grnGrid, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadN, cfg.N)
	}
	r := cfg.R
	if r == 0 {
		if !(cfg.MeanDegree > 0) {
			return nil, fmt.Errorf("gen: GRN needs R or MeanDegree > 0, got MeanDegree=%v", cfg.MeanDegree)
		}
		r = GRNRadiusForMeanDegree(cfg.N, cfg.MeanDegree)
	}
	if !(r > 0 && r <= math.Sqrt2) {
		return nil, fmt.Errorf("gen: GRN radius %v out of (0, sqrt(2)]", r)
	}

	pts := make([]Point, cfg.N)
	b.forChunks(cfg.N, func(chunk, lo, hi int) {
		rng := b.Phases.Chunk("grn.points", chunk)
		for i := lo; i < hi; i++ {
			pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
		}
	})

	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	grid := &grnGrid{
		pts:      pts,
		cells:    cells,
		cellSize: 1.0 / float64(cells),
		start:    b.Arena.Grab(cells*cells + 1),
		bucket:   b.Arena.Grab(cfg.N),
		r2:       r * r,
	}
	clear(grid.start)
	cellKeys := b.Arena.Grab(cfg.N)
	for i, p := range pts {
		cx, cy := grid.cellOf(p)
		k := int32(cy*cells + cx)
		cellKeys[i] = k
		grid.start[k+1]++
	}
	for k := 1; k < len(grid.start); k++ {
		grid.start[k] += grid.start[k-1]
	}
	next := b.Arena.Grab(cells * cells)
	copy(next, grid.start[:cells*cells])
	for i := range cellKeys {
		k := cellKeys[i]
		grid.bucket[next[k]] = int32(i)
		next[k]++
	}
	b.Arena.Release(next)
	b.Arena.Release(cellKeys)
	return grid, nil
}

// recycle returns the grid's index tables to the arena. The grid must not
// be scanned afterwards; pts stays valid (it escapes with the result).
func (gr *grnGrid) recycle(a *graph.CSRArena) {
	a.Release(gr.start)
	a.Release(gr.bucket)
	gr.start, gr.bucket = nil, nil
}

func (gr *grnGrid) cellOf(p Point) (int, int) {
	cx := int(p.X / gr.cellSize)
	cy := int(p.Y / gr.cellSize)
	if cx >= gr.cells {
		cx = gr.cells - 1
	}
	if cy >= gr.cells {
		cy = gr.cells - 1
	}
	return cx, cy
}

// scanNode appends node i's candidate edges (j > i, within radius) to
// out, in the fixed cell/bucket order.
func (gr *grnGrid) scanNode(i int, out []int32) []int32 {
	p := gr.pts[i]
	cx, cy := gr.cellOf(p)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= gr.cells || ny >= gr.cells {
				continue
			}
			k := ny*gr.cells + nx
			for _, j := range gr.bucket[gr.start[k]:gr.start[k+1]] {
				if int(j) <= i {
					continue // handle each unordered pair once
				}
				q := gr.pts[j]
				ddx, ddy := p.X-q.X, p.Y-q.Y
				if ddx*ddx+ddy*ddy < gr.r2 {
					out = append(out, j)
				}
			}
		}
	}
	return out
}

// Mesh generates a width×height 2-D regular grid where each node links to
// its four axis-aligned neighbors (no wraparound), the paper's alternative
// DAPA substrate.
func Mesh(width, height int) (*graph.Graph, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("%w: mesh %dx%d", ErrBadN, width, height)
	}
	g := graph.New(width * height)
	id := func(x, y int) int { return y*width + x }
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if x+1 < width {
				mustEdge(g, id(x, y), id(x+1, y))
			}
			if y+1 < height {
				mustEdge(g, id(x, y), id(x, y+1))
			}
		}
	}
	return g, nil
}
