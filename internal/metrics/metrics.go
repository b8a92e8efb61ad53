// Package metrics provides the structural network metrics the paper's
// motivation leans on: clustering, degree assortativity, and the
// robustness analysis behind "scale-free networks are robust against
// random failures yet fragile against attacks targeted to hubs" (§III,
// citing Albert et al.). Hard cutoffs remove super-hubs, so they should —
// and, per the Attack experiment, do — blunt exactly that fragility.
package metrics

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// ErrNoEdges is returned by metrics that are undefined on edgeless graphs.
var ErrNoEdges = errors.New("metrics: graph has no edges")

// GlobalClustering returns the transitivity of the frozen topology:
// 3×triangles / connected triples. Multigraph artifacts (self-loops,
// parallel edges) are ignored by considering distinct neighbor sets.
// Returns 0 for graphs with no connected triples.
//
// The computation runs on the CSR form via clusteringScan: flat-array
// neighbor marks instead of the historical per-pair edge-map probes and
// per-node dedupe maps. Callers holding a *graph.Graph freeze once
// (g.Freeze()) and may share the snapshot across every metric in this
// package.
func GlobalClustering(f *graph.Frozen) float64 {
	triangles := 0
	triples := 0
	clusteringScan(f, func(u, d, links int) {
		triples += d * (d - 1) / 2
		triangles += links // links among u's neighbors: one triangle count per apex
	})
	if triples == 0 {
		return 0
	}
	return float64(triangles) / float64(triples)
}

// clusteringScan visits every node with its distinct-neighbor count d and
// the number of edges among those neighbors (links). It is
// GlobalClustering's engine, built for the CSR layout:
//
//   - u's distinct neighbors are marked in an epoch-stamped array
//     (O(1) clear per node);
//   - for each marked neighbor v, v's sorted range is deduped inline and
//     every marked w counts — a pure sequential array scan, no hashing,
//     no binary search. Each neighbor-pair edge is seen from both sides,
//     so links = count/2.
//
// The count of links per node is identical to probing every neighbor pair
// with HasEdge (the historical algorithm), which the golden tests pin.
func clusteringScan(f *graph.Frozen, visit func(u, d, links int)) {
	n := f.N()
	mark := make([]int32, n)
	var epoch int32
	var nbs []int32 // reused distinct-neighbor buffer
	for u := 0; u < n; u++ {
		nbs = distinctNeighbors(f, u, nbs[:0])
		d := len(nbs)
		if d < 2 {
			visit(u, d, 0)
			continue
		}
		epoch++ // one epoch per apex; n <= MaxInt32 nodes, no wraparound
		for _, v := range nbs {
			mark[v] = epoch
		}
		count := 0
		for _, v := range nbs {
			prev := int32(-1)
			for _, w := range f.SortedNeighbors(int(v)) {
				if w == prev {
					continue // duplicates are adjacent in the sorted range
				}
				prev = w
				if w == v {
					continue // self-loop at v
				}
				if mark[w] == epoch {
					count++
				}
			}
		}
		visit(u, d, count/2)
	}
}

// distinctNeighbors appends u's neighbor set — no duplicates, no self —
// to buf (ascending). The sorted CSR range makes this a linear scan:
// duplicates are adjacent.
func distinctNeighbors(f *graph.Frozen, u int, buf []int32) []int32 {
	prev := int32(-1)
	for _, v := range f.SortedNeighbors(u) {
		if v == prev {
			continue
		}
		prev = v
		if int(v) == u {
			continue
		}
		buf = append(buf, v)
	}
	return buf
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's r): positive means hubs link to hubs, negative means
// hubs link to leaves. Growth models like PA are disassortative.
func DegreeAssortativity(f *graph.Frozen) (float64, error) {
	var sx, sy, sxy, sxx, syy, m float64
	n := f.N()
	for u := 0; u < n; u++ {
		du := float64(f.Degree(u))
		for _, v := range f.Neighbors(u) {
			// Each undirected edge contributes both orientations, the
			// standard symmetric treatment.
			dv := float64(f.Degree(int(v)))
			sx += du
			sy += dv
			sxy += du * dv
			sxx += du * du
			syy += dv * dv
			m++
		}
	}
	if m == 0 {
		return 0, ErrNoEdges
	}
	num := sxy/m - (sx/m)*(sy/m)
	den := math.Sqrt((sxx/m - (sx/m)*(sx/m)) * (syy/m - (sy/m)*(sy/m)))
	if den == 0 {
		return 0, nil // regular graph: correlation undefined, report 0
	}
	return num / den, nil
}

// RemovalStrategy selects which nodes a robustness experiment deletes.
type RemovalStrategy int

const (
	// RemoveRandom deletes uniformly random nodes (random failures).
	RemoveRandom RemovalStrategy = iota + 1
	// RemoveHighestDegree deletes nodes in descending degree order
	// (a targeted attack on hubs — the "Achilles heel").
	RemoveHighestDegree
	// RemoveHighestBetweenness deletes the nodes carrying the most
	// shortest-path traffic — the strongest (and costliest) attack,
	// targeting the peers "through which most of the traffic go" (§III).
	// Batched: one pivot-sampled Brandes pass per measurement step prices
	// every live node, and the step removes the top scorers in order.
	RemoveHighestBetweenness
)

// String names the strategy.
func (s RemovalStrategy) String() string {
	switch s {
	case RemoveRandom:
		return "random failure"
	case RemoveHighestDegree:
		return "targeted attack"
	case RemoveHighestBetweenness:
		return "betweenness attack"
	default:
		return "unknown"
	}
}

// RobustnessPoint is one measurement of a removal experiment.
type RobustnessPoint struct {
	// RemovedFrac is the fraction of original nodes removed.
	RemovedFrac float64
	// GiantFrac is the giant component's share of the surviving nodes'
	// original count (giant size / original N).
	GiantFrac float64
}

// DefaultBetweennessPivots is the Brandes–Pich pivot budget behind
// RemoveHighestBetweenness when RobustnessConfig.BetweennessPivots is
// zero — the historical hardwired value.
const DefaultBetweennessPivots = 64

// RobustnessConfig parameterizes a removal experiment beyond the core
// (strategy, stepFrac, maxFrac) triple of Robustness.
type RobustnessConfig struct {
	Strategy RemovalStrategy
	// StepFrac is the fraction of original nodes removed between
	// measurements; MaxFrac is where the experiment stops. Both in (0,1].
	StepFrac, MaxFrac float64
	// BetweennessPivots bounds the pivot sample behind each step of
	// RemoveHighestBetweenness; 0 selects DefaultBetweennessPivots,
	// values >= N run exact Brandes. Each pivot's dependency sum is
	// scaled up by N/pivots (Brandes–Pich), so scores at
	// different pivot budgets live on the same scale and only their
	// variance differs. Per-step estimator uncertainty is reported
	// through BetweennessStep.
	BetweennessPivots int
}

// BetweennessStep reports the estimator accounting of one
// betweenness-attack step: the mean Brandes–Pich score of the nodes the
// step removed, and the mean standard error of those scores, from the
// empirical per-pivot variance. Steps that fell back to degree order (no
// positive-betweenness nodes left) report zeros.
type BetweennessStep struct {
	// RemovedFrac is the fraction of original nodes removed after this
	// step completed — aligns with the RobustnessPoint measured then.
	RemovedFrac float64
	MeanBC      float64
	MeanSE      float64
}

// Robustness removes nodes in steps of stepFrac (e.g. 0.02) up to maxFrac,
// by the given strategy, measuring the giant-component fraction after each
// step. For RemoveHighestDegree, degrees are recomputed after every step
// (adaptive attack, the stronger variant). The snapshot is only read.
func Robustness(f *graph.Frozen, strategy RemovalStrategy, stepFrac, maxFrac float64, rng *xrand.RNG) ([]RobustnessPoint, error) {
	pts, _, err := RobustnessWith(f, RobustnessConfig{
		Strategy: strategy, StepFrac: stepFrac, MaxFrac: maxFrac,
	}, rng)
	return pts, err
}

// RobustnessWith is Robustness with the full configuration surface. With a
// zero-valued extension config it is behavior- and RNG-identical to
// Robustness. The second return value carries per-step estimator
// accounting and is non-nil only for the betweenness attack.
func RobustnessWith(f *graph.Frozen, cfg RobustnessConfig, rng *xrand.RNG) ([]RobustnessPoint, []BetweennessStep, error) {
	strategy, stepFrac, maxFrac := cfg.Strategy, cfg.StepFrac, cfg.MaxFrac
	pivots := cfg.BetweennessPivots
	if pivots == 0 {
		pivots = DefaultBetweennessPivots
	}
	if stepFrac <= 0 || stepFrac > 1 || maxFrac <= 0 || maxFrac > 1 {
		return nil, nil, errors.New("metrics: fractions must be in (0,1]")
	}
	if pivots < 0 {
		return nil, nil, errors.New("metrics: negative betweenness pivots")
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	n := f.N()
	if n == 0 {
		return nil, nil, errors.New("metrics: empty graph")
	}
	r := newRemoval(f, strategy == RemoveHighestBetweenness)
	pts := []RobustnessPoint{r.point()}
	step := max(int(math.Round(stepFrac*float64(n))), 1)
	var bcSteps []BetweennessStep
	for float64(n-r.aliveCount)/float64(n) < maxFrac && r.aliveCount > 0 {
		switch strategy {
		case RemoveHighestBetweenness:
			bs := r.removeBetweennessBatch(step, pivots, rng)
			bs.RemovedFrac = float64(n-r.aliveCount) / float64(n)
			bcSteps = append(bcSteps, bs)
		case RemoveRandom:
			for i := 0; i < step && r.aliveCount > 0; i++ {
				r.remove(r.randomAlive(rng))
			}
		case RemoveHighestDegree:
			r.removeHighestDegree(step)
		default:
			return nil, nil, errors.New("metrics: unknown removal strategy")
		}
		pts = append(pts, r.point())
	}
	return pts, bcSteps, nil
}

// removal is the working state of one removal experiment: a private copy
// of the snapshot's rows and the giant-component BFS scratch. A removal
// empties the node's row and deletes each copy of it from its neighbors'
// rows by Graph.RemoveEdge's rule (swap-with-last, first copy first), so
// the rows keep the order a Graph mutated by the same removals would.
// The indexes that pick the next victim are built on a strategy's first
// pick and kept current by every removal after it, so a pick costs
// O(log N) instead of a scan over all N nodes.
type removal struct {
	rows       [][]int32 // sliced from one flat array, capacity clipped
	alive      []bool
	aliveCount int
	seen       []bool // reached by the current measurement's BFS
	queue      []int32
	bt         *brandes   // the betweenness attack's state, else nil
	ranks      aliveRanks // the random attack's index, else nil
	byDegree   degreeTree // the degree attack's index, else nil
}

func newRemoval(f *graph.Frozen, withBrandes bool) *removal {
	n := f.N()
	r := &removal{
		rows: make([][]int32, n), alive: make([]bool, n), aliveCount: n,
		seen: make([]bool, n), queue: make([]int32, 0, n),
	}
	flat := make([]int32, 0, f.TotalDegree())
	for u := range n {
		lo := len(flat)
		flat = append(flat, f.Neighbors(u)...)
		r.rows[u] = flat[lo:len(flat):len(flat)]
		r.alive[u] = true
	}
	if withBrandes {
		r.bt = newBrandes(f)
	}
	return r
}

// remove deletes u and every edge incident to it.
func (r *removal) remove(u int) {
	w := int32(u)
	for _, v := range r.rows[u] {
		if v == w {
			continue
		}
		row := r.rows[v]
		for i := 0; i < len(row); i++ {
			for i < len(row) && row[i] == w {
				row[i] = row[len(row)-1]
				row = row[:len(row)-1]
			}
		}
		r.rows[v] = row
		if r.byDegree != nil {
			r.byDegree.update(r, int(v))
		}
	}
	r.rows[u] = r.rows[u][:0]
	r.alive[u] = false
	r.aliveCount--
	if r.ranks != nil {
		r.ranks.remove(u)
	}
	if r.byDegree != nil {
		r.byDegree.update(r, u)
	}
}

// point measures the current removed fraction and giant fraction. The
// giant is the largest component of alive nodes, by one BFS over them:
// a removed node has no edges left, so no BFS crosses one.
func (r *removal) point() RobustnessPoint {
	clear(r.seen)
	giant := 0
	for s, a := range r.alive {
		if !a || r.seen[s] {
			continue
		}
		r.seen[s] = true
		q := append(r.queue[:0], int32(s))
		for head := 0; head < len(q); head++ {
			for _, v := range r.rows[q[head]] {
				if !r.seen[v] {
					r.seen[v] = true
					q = append(q, v)
				}
			}
		}
		giant = max(giant, len(q))
		r.queue = q
	}
	n := float64(len(r.alive))
	return RobustnessPoint{
		RemovedFrac: float64(len(r.alive)-r.aliveCount) / n,
		GiantFrac:   float64(giant) / n,
	}
}

// removeBetweennessBatch runs one betweenness-attack step: a single
// pivot-sampled Brandes pass prices every live node, the top `step` by
// estimated score (ties toward lower IDs) are removed in that order, and
// any shortfall — fewer than `step` live nodes with positive score — falls
// back to adaptive highest-degree removal.
func (r *removal) removeBetweennessBatch(step, pivots int, rng *xrand.RNG) BetweennessStep {
	bc, se := r.bt.run(r.rows, pivots, rng)
	cand := r.queue[:0] // the BFS queue is free between measurements
	for u, a := range r.alive {
		if a && bc[u] > 0 {
			cand = append(cand, int32(u))
		}
	}
	slices.SortFunc(cand, func(a, b int32) int { return cmp.Or(cmp.Compare(bc[b], bc[a]), cmp.Compare(a, b)) })
	cand = cand[:min(len(cand), step)]
	var bs BetweennessStep
	for _, u := range cand {
		bs.MeanBC += bc[u]
		bs.MeanSE += se[u]
		r.remove(int(u))
	}
	if len(cand) > 0 {
		bs.MeanBC /= float64(len(cand))
		bs.MeanSE /= float64(len(cand))
	}
	r.removeHighestDegree(step - len(cand))
	return bs
}

// removeHighestDegree removes up to k nodes one at a time, each the live
// node of highest current degree (lowest ID among ties).
func (r *removal) removeHighestDegree(k int) {
	if r.byDegree == nil && k > 0 {
		r.byDegree = newDegreeTree(r)
	}
	for ; k > 0 && r.aliveCount > 0; k-- {
		r.remove(int(r.byDegree[1]))
	}
}

// randomAlive draws rng.Intn(aliveCount) and returns that many-th live
// node in ID order.
func (r *removal) randomAlive(rng *xrand.RNG) int {
	if r.ranks == nil {
		r.ranks = newAliveRanks(r.alive)
	}
	return r.ranks.find(rng.Intn(r.aliveCount))
}

// aliveRanks is a Fenwick tree over the alive flags: entry i (1-based)
// counts the live nodes among IDs (i − lowbit(i), i − 1].
type aliveRanks []int32

func newAliveRanks(alive []bool) aliveRanks {
	t := make(aliveRanks, len(alive)+1)
	for i := 1; i < len(t); i++ {
		if alive[i-1] {
			t[i]++
		}
		if j := i + i&-i; j < len(t) {
			t[j] += t[i]
		}
	}
	return t
}

// remove drops live node u from the counts.
func (t aliveRanks) remove(u int) {
	for i := u + 1; i < len(t); i += i & -i {
		t[i]--
	}
}

// find returns the live node with exactly k live nodes below it.
func (t aliveRanks) find(k int) int {
	pos, rem := 0, int32(k)
	for step := 1 << (bits.Len(uint(len(t)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(t) && t[next] <= rem {
			pos, rem = next, rem-t[next]
		}
	}
	return pos
}

// degreeTree is a tournament tree over the nodes: leaf size+u holds u,
// and each inner entry the winner of its two children — the live node of
// longest row, lowest ID among ties — so entry 1 is the degree attack's
// next victim. Removed nodes and padding (-1) never win against a live
// node.
type degreeTree []int32

func newDegreeTree(r *removal) degreeTree {
	n := len(r.rows)
	size := 1
	for size < n {
		size <<= 1
	}
	t := make(degreeTree, 2*size)
	for i := size; i < len(t); i++ {
		t[i] = -1
		if i-size < n {
			t[i] = int32(i - size)
		}
	}
	for i := size - 1; i >= 1; i-- {
		t[i] = t.winner(r, t[2*i], t[2*i+1])
	}
	return t
}

// winner returns whichever of a and b the degree attack removes first.
func (t degreeTree) winner(r *removal, a, b int32) int32 {
	if ka, kb := t.key(r, a), t.key(r, b); kb > ka || (kb == ka && b < a) {
		return b
	}
	return a
}

// key orders the leaves: a live node's row length, -1 for the rest.
func (degreeTree) key(r *removal, u int32) int {
	if u < 0 || !r.alive[u] {
		return -1
	}
	return len(r.rows[u])
}

// update replays the matches on u's path to the root after its row
// shrank or it was removed.
func (t degreeTree) update(r *removal, u int) {
	for i := (len(t)/2 + u) / 2; i >= 1; i /= 2 {
		t[i] = t.winner(r, t[2*i], t[2*i+1])
	}
}
