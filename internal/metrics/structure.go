package metrics

// Additional structural metrics for characterizing what hard cutoffs do
// to an overlay beyond the degree distribution: the rich-club coefficient
// (whether hubs preferentially interlink — the "super hub" cores HAPA
// produces and cutoffs destroy), the effective diameter (the robust
// variant of Table I's diameter, insensitive to outlier paths), and
// uniform site percolation (the random-failure view of §III's
// robust-yet-fragile argument, complementing the targeted Robustness
// sweep).

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// RichClubPoint is the rich-club coefficient at one degree threshold.
type RichClubPoint struct {
	// K is the degree threshold: the club is every node with degree > K.
	K int
	// Nodes is the club size.
	Nodes int
	// Phi is the density of edges inside the club: E_club / (n·(n-1)/2).
	Phi float64
}

// RichClub computes the rich-club coefficient phi(k) for every degree
// threshold k at which the club has at least two members. On HAPA's
// star-like cores phi stays high as k grows; applying a hard cutoff
// flattens the club away.
func RichClub(f *graph.Frozen) []RichClubPoint {
	n := f.N()
	degs := f.DegreeSequence()
	maxDeg := 0
	for _, d := range degs {
		if d > maxDeg {
			maxDeg = d
		}
	}
	var out []RichClubPoint
	inClub := make([]bool, n)
	var nbs []int32
	for k := 0; k < maxDeg; k++ {
		var club []int
		for v := 0; v < n; v++ {
			inClub[v] = degs[v] > k
			if inClub[v] {
				club = append(club, v)
			}
		}
		if len(club) < 2 {
			break
		}
		edges := 0
		for _, v := range club {
			nbs = distinctNeighbors(f, v, nbs[:0])
			for _, w := range nbs {
				if int(w) > v && inClub[w] {
					edges++
				}
			}
		}
		pairs := len(club) * (len(club) - 1) / 2
		out = append(out, RichClubPoint{
			K:     k,
			Nodes: len(club),
			Phi:   float64(edges) / float64(pairs),
		})
	}
	return out
}

// EffectiveDiameter returns the q-quantile (typically 0.9) of the
// pairwise-distance distribution, estimated from BFS over `sources`
// random sources (all sources when sources >= N). Unreachable pairs are
// excluded. It is the robust companion to Table I's diameter: a handful
// of stringy paths cannot move it.
func EffectiveDiameter(f *graph.Frozen, q float64, sources int, rng *xrand.RNG) (int, error) {
	if f.N() == 0 {
		return 0, fmt.Errorf("metrics: empty graph")
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v must be in (0,1]", q)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	n := f.N()
	var srcs []int
	if sources >= n {
		srcs = make([]int, n)
		for i := range srcs {
			srcs[i] = i
		}
	} else {
		if sources < 1 {
			sources = 1
		}
		srcs = rng.Perm(n)[:sources]
	}
	// Histogram distances; distances are bounded by N.
	hist := make([]int64, 0, 64)
	var total int64
	for _, s := range srcs {
		dist := f.BFS(s)
		for v, d := range dist {
			if d <= 0 || v == s {
				continue // unreachable or self
			}
			for int(d) >= len(hist) {
				hist = append(hist, 0)
			}
			hist[d]++
			total++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("metrics: no reachable pairs from sampled sources")
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var acc int64
	for d := 1; d < len(hist); d++ {
		acc += hist[d]
		if acc >= target {
			return d, nil
		}
	}
	return len(hist) - 1, nil
}

// PercolationPoint is one sample of the site-percolation curve.
type PercolationPoint struct {
	// Occupied is the fraction of nodes retained.
	Occupied float64
	// GiantFrac is the giant-component size over the ORIGINAL node count.
	GiantFrac float64
}

// SitePercolation retains each node independently with probability p for
// p on a uniform grid of `steps` points in (0,1], returning the mean
// giant-component fraction over `trials` trials per point. Scale-free
// networks with gamma < 3 famously lack a percolation threshold under
// random removal (they stay connected until almost nothing is left) —
// applying a hard cutoff restores a finite threshold, which is the dual
// of the attack-tolerance improvement.
func SitePercolation(f *graph.Frozen, steps, trials int, rng *xrand.RNG) ([]PercolationPoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("metrics: steps %d must be >= 2", steps)
	}
	if trials < 1 {
		return nil, fmt.Errorf("metrics: trials %d must be >= 1", trials)
	}
	if f.N() == 0 {
		return nil, fmt.Errorf("metrics: empty graph")
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	n := f.N()
	out := make([]PercolationPoint, steps)
	keep := make([]int, 0, n)
	for i := 0; i < steps; i++ {
		p := float64(i+1) / float64(steps)
		var sum float64
		for tr := 0; tr < trials; tr++ {
			keep = keep[:0]
			for v := 0; v < n; v++ {
				if rng.Float64() < p {
					keep = append(keep, v)
				}
			}
			if len(keep) == 0 {
				continue
			}
			sub, _ := f.InducedFrozen(keep)
			sum += float64(len(sub.GiantComponent())) / float64(n)
		}
		out[i] = PercolationPoint{Occupied: p, GiantFrac: sum / float64(trials)}
	}
	return out, nil
}

// PercolationThreshold estimates the occupation probability at which the
// giant component first exceeds `frac` of the original network (linear
// interpolation between the bracketing samples; 1 if never reached).
func PercolationThreshold(pts []PercolationPoint, frac float64) float64 {
	for i, pt := range pts {
		if pt.GiantFrac >= frac {
			if i == 0 {
				return pt.Occupied
			}
			prev := pts[i-1]
			span := pt.GiantFrac - prev.GiantFrac
			if span <= 0 {
				return pt.Occupied
			}
			t := (frac - prev.GiantFrac) / span
			return prev.Occupied + t*(pt.Occupied-prev.Occupied)
		}
	}
	return 1
}
