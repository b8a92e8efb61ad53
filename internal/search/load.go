package search

// Per-node load accounting. The paper motivates hard cutoffs by load
// fairness but measures topology (degree) only; degree is a proxy for the
// real cost, which is query-handling work. Scratch.NormalizedFloodLoad
// charges every transmission to the node that performs it, so the fairness
// experiment can compare the Gini of actual search load with the Gini of
// degrees under different cutoffs.

import (
	"fmt"

	"scalefree/internal/graph"
)

// Load accumulates per-node work across any number of searches.
type Load struct {
	// Forwards[v] counts query transmissions node v performed.
	Forwards []int64
	// Receipts[v] counts query copies node v received (including
	// suppressed duplicates — receiving costs work even when the copy is
	// dropped).
	Receipts []int64
}

// NewLoad returns a zeroed accumulator for an n-node graph.
func NewLoad(n int) *Load {
	return &Load{Forwards: make([]int64, n), Receipts: make([]int64, n)}
}

// Total returns the summed forwards (== total messages charged).
func (l *Load) Total() int64 {
	var t int64
	for _, f := range l.Forwards {
		t += f
	}
	return t
}

// Merge adds other's counters into l. Both must be sized for the same
// graph. Integer addition is commutative and associative, so merging
// per-shard accumulators in any order yields identical totals — the
// property the sharded fairness sweeps rely on for bit-for-bit
// reproducibility.
func (l *Load) Merge(other *Load) error {
	if len(l.Forwards) != len(other.Forwards) {
		return fmt.Errorf("search: merging loads sized %d and %d", len(l.Forwards), len(other.Forwards))
	}
	for v := range l.Forwards {
		l.Forwards[v] += other.Forwards[v]
		l.Receipts[v] += other.Receipts[v]
	}
	return nil
}

// Work returns per-node total work (forwards + receipts) as ints, the
// shape stats.Gini and stats.TopShare consume.
func (l *Load) Work() []int {
	out := make([]int, len(l.Forwards))
	for v := range out {
		out[v] = int(l.Forwards[v] + l.Receipts[v])
	}
	return out
}

func (l *Load) check(f *graph.Frozen) error {
	if len(l.Forwards) != f.N() {
		return fmt.Errorf("search: load sized for %d nodes, graph has %d", len(l.Forwards), f.N())
	}
	return nil
}
