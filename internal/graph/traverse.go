package graph

// This file holds the result type of sampled path statistics. Every
// whole-graph traversal has its one implementation on the Frozen snapshot
// (frozen_traverse.go); a Graph is frozen once and read there.

// PathStats summarizes sampled shortest-path structure.
type PathStats struct {
	// MeanDistance is the average shortest-path length over sampled
	// reachable pairs.
	MeanDistance float64
	// MaxDistance is the largest distance observed in the sample
	// (a lower bound on the true diameter).
	MaxDistance int
	// Pairs is the number of reachable pairs sampled.
	Pairs int
	// UnreachablePairs counts sampled pairs with no connecting path.
	UnreachablePairs int
}
