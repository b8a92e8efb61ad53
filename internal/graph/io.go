package graph

// Edge-list serialization. The format is the de-facto standard for network
// datasets: a header line "# nodes <N>" followed by one "u v" pair per
// line, whitespace-separated, '#' comments ignored. cmd/topogen emits this
// format and cmd/analyze consumes it, so generated topologies can be
// inspected, searched or fed to external tools. Both writers and
// the reader speak Frozen: a topology is written from its snapshot, in the
// order of sortedEdgeKeys, and read back as one.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// sortedEdgeKeys returns one key per edge copy — smaller endpoint in the
// high word, larger in the low — in ascending (u,v) order, so parallel
// copies are adjacent. It is the one deterministic edge enumeration: the
// edge-list and DOT writers and Graph.Simplify's deletion order all read
// it.
func (f *Frozen) sortedEdgeKeys() []uint64 {
	keys := make([]uint64, 0, f.edges)
	for u := 0; u < f.N(); u++ {
		loopHalf := false
		for _, v := range f.Neighbors(u) {
			if int(v) == u {
				// A self-loop is two entries of the same row: emit on
				// every second one.
				loopHalf = !loopHalf
				if loopHalf {
					continue
				}
			}
			if int(v) >= u {
				keys = append(keys, uint64(u)<<32|uint64(v))
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// WriteEdgeList writes f in edge-list format. Each undirected edge is
// written once (smaller endpoint first), in ascending (u,v) order so the
// same topology always writes the same bytes; parallel edges are written
// per copy, adjacent, and self-loops as "u u".
func (f *Frozen) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", f.N()); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	for _, key := range f.sortedEdgeKeys() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", key>>32, uint32(key)); err != nil {
			return fmt.Errorf("write edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush edge list: %w", err)
	}
	return nil
}

// ReadEdgeList parses the edge-list format produced by WriteEdgeList into
// a snapshot. Lines starting with '#' are comments, except a "# nodes N"
// header which pre-sizes the topology; otherwise the node count is one
// more than the largest ID seen. Node IDs and the header count must be
// below math.MaxInt32, the CSR layout's int32 range: a larger one is a
// line-numbered error, reported before any node is added.
func ReadEdgeList(r io.Reader) (*Frozen, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	g := New(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[1] == "nodes" {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("line %d: bad node count %q", lineNo, fields[2])
				}
				if n >= math.MaxInt32 {
					return nil, fmt.Errorf("line %d: node count %d out of range (must be below %d)", lineNo, n, math.MaxInt32)
				}
				for g.N() < n {
					g.AddNode()
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad node %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad node %q", lineNo, fields[1])
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("line %d: negative node ID", lineNo)
		}
		if id := max(u, v); id >= math.MaxInt32 {
			return nil, fmt.Errorf("line %d: node ID %d out of range (must be below %d)", lineNo, id, math.MaxInt32)
		}
		for g.N() <= u || g.N() <= v {
			g.AddNode()
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan edge list: %w", err)
	}
	return g.Freeze(), nil
}

// WriteDOT writes f in Graphviz DOT format (`graph` block, one "u -- v"
// line per undirected edge, degree-scaled node sizes), for visual
// inspection with dot/neato/sfdp. Self-loops and parallel edges are
// emitted per copy and in the same ascending order as WriteEdgeList.
func (f *Frozen) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "overlay"
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "graph %q {\n  node [shape=point];\n", name); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	// Scale node size with degree so hubs (or their cutoff-capped absence)
	// are visible at a glance.
	for v := 0; v < f.N(); v++ {
		d := f.Degree(v)
		if d == 0 {
			continue // skip isolates to keep renders readable
		}
		size := 0.05 + 0.01*float64(d)
		if _, err := fmt.Fprintf(bw, "  %d [width=%.2f];\n", v, size); err != nil {
			return fmt.Errorf("write node: %w", err)
		}
	}
	for _, key := range f.sortedEdgeKeys() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", key>>32, uint32(key)); err != nil {
			return fmt.Errorf("write edge: %w", err)
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return fmt.Errorf("write footer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush dot: %w", err)
	}
	return nil
}
