package metrics

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// referenceRobustnessWith is the Graph-based removal experiment
// RobustnessWith replaced, kept as the oracle of the snapshot-based one:
// it removes nodes by mutating g itself (callers hand it a graph of their
// own), and measures each point through a fresh freeze and its component
// lists.
func referenceRobustnessWith(g *graph.Graph, cfg RobustnessConfig, rng *xrand.RNG) ([]RobustnessPoint, []BetweennessStep, error) {
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
	n := g.N()
	if n == 0 {
		return nil, nil, errors.New("metrics: empty graph")
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n
	removeNode := func(u int) {
		nbs := append([]int32(nil), g.Neighbors(u)...)
		for _, v := range nbs {
			for g.RemoveEdge(u, int(v)) {
			}
		}
		alive[u] = false
		aliveCount--
	}
	highestDegreeAlive := func() int {
		best, bestDeg := -1, -1
		for u := range alive {
			if alive[u] && g.Degree(u) > bestDeg {
				best, bestDeg = u, g.Degree(u)
			}
		}
		return best
	}
	var pts []RobustnessPoint
	measure := func() {
		giant := 0
		for _, comp := range g.Freeze().ConnectedComponents() {
			size := 0
			for _, u := range comp {
				if alive[u] {
					size++
				}
			}
			giant = max(giant, size)
		}
		pts = append(pts, RobustnessPoint{
			RemovedFrac: float64(n-aliveCount) / float64(n),
			GiantFrac:   float64(giant) / float64(n),
		})
	}
	measure()
	step := int(math.Round(stepFrac * float64(n)))
	if step < 1 {
		step = 1
	}
	var bcSteps []BetweennessStep
	for float64(n-aliveCount)/float64(n) < maxFrac && aliveCount > 0 {
		if strategy == RemoveHighestBetweenness {
			bc, se := referenceBetweenness(g, pivots, rng)
			cand := make([]int32, 0, n)
			for u, a := range alive {
				if a && bc[u] > 0 {
					cand = append(cand, int32(u))
				}
			}
			sort.Slice(cand, func(a, b int) bool {
				if bc[cand[a]] != bc[cand[b]] {
					return bc[cand[a]] > bc[cand[b]]
				}
				return cand[a] < cand[b]
			})
			if len(cand) > step {
				cand = cand[:step]
			}
			var bs BetweennessStep
			for _, u := range cand {
				bs.MeanBC += bc[u]
				bs.MeanSE += se[u]
				removeNode(int(u))
			}
			if len(cand) > 0 {
				bs.MeanBC /= float64(len(cand))
				bs.MeanSE /= float64(len(cand))
			}
			for i := len(cand); i < step && aliveCount > 0; i++ {
				removeNode(highestDegreeAlive())
			}
			bs.RemovedFrac = float64(n-aliveCount) / float64(n)
			bcSteps = append(bcSteps, bs)
			measure()
			continue
		}
		for i := 0; i < step && aliveCount > 0; i++ {
			switch strategy {
			case RemoveRandom:
				removeNode(randomAlive(alive, aliveCount, rng))
			case RemoveHighestDegree:
				removeNode(highestDegreeAlive())
			default:
				return nil, nil, errors.New("metrics: unknown removal strategy")
			}
		}
		measure()
	}
	return pts, bcSteps, nil
}

// randomAlive is the random attack's pick by its definition: draw
// rng.Intn(aliveCount) and scan for that many-th live node in ID order.
func randomAlive(alive []bool, aliveCount int, rng *xrand.RNG) int {
	pick := rng.Intn(aliveCount)
	for u, a := range alive {
		if !a {
			continue
		}
		if pick == 0 {
			return u
		}
		pick--
	}
	return -1
}

// referenceBetweenness is the Brandes pass the Graph-based experiment ran
// on each step's graph, with fresh state per call: sampled from pivots
// random sources when 0 < pivots < N (bc scaled by N/pivots, se from the
// per-pivot variance when pivots > 1), exact otherwise.
func referenceBetweenness(g *graph.Graph, pivots int, rng *xrand.RNG) (bc, se []float64) {
	n := g.N()
	bc, se = make([]float64, n), make([]float64, n)
	if n == 0 {
		return bc, se
	}
	exact := pivots <= 0 || pivots >= n
	if exact {
		pivots = n
	}
	var sumsq []float64
	if !exact && pivots > 1 {
		sumsq = make([]float64, n)
	}
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	order := make([]int32, 0, n)
	preds := make([][]int32, n)
	for p := 0; p < pivots; p++ {
		s := p
		if !exact {
			s = rng.Intn(n)
		}
		for i := range dist {
			dist[i], sigma[i], delta[i], preds[i] = -1, 0, 0, preds[i][:0]
		}
		order = order[:0]
		dist[s], sigma[s] = 0, 1
		queue := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			order = append(order, u)
			for _, v := range g.Neighbors(int(u)) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if int(w) != s {
				bc[w] += delta[w]
				if sumsq != nil {
					sumsq[w] += delta[w] * delta[w]
				}
			}
		}
	}
	scale := 0.5
	if !exact {
		scale = float64(n) / float64(pivots) / 2
	}
	if sumsq != nil {
		p, half := float64(pivots), float64(n)/2
		for i := range se {
			mean := bc[i] / p
			if variance := (sumsq[i] - p*mean*mean) / (p - 1); variance > 0 {
				se[i] = half * math.Sqrt(variance/p)
			}
		}
	}
	for i := range bc {
		bc[i] *= scale
	}
	return bc, se
}

// fuzzRobustnessGraph builds the graph one fuzz input names. shape%3
// picks an arbitrary multigraph on 1..24 nodes — edges are byte pairs, so
// self-loops and parallel edges come up — or PA without or with a hard
// cutoff on 40..199 nodes.
func fuzzRobustnessGraph(t *testing.T, shape byte, seed uint64, edges []byte) *graph.Graph {
	t.Helper()
	if shape%3 == 0 {
		n := 1 + int(seed%24)
		g := graph.New(n)
		for i := 0; i+1 < len(edges); i += 2 {
			if err := g.AddEdge(int(edges[i])%n, int(edges[i+1])%n); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	cfg := gen.PAConfig{N: 40 + int(seed%160), M: 1 + int(seed>>8)%3, KC: gen.NoCutoff}
	if shape%3 == 2 {
		cfg.KC = cfg.M + 2 + int(seed>>16)%8
	}
	g, _, err := gen.PA(cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzRobustnessMatchesGraphReference holds RobustnessWith on a snapshot
// to the Graph-based experiment it replaced, bit for bit: points,
// estimator steps and errors, for every strategy, on multigraphs with
// self-loops and parallel edges and on PA with and without a cutoff, at
// pivot budgets of 0 (the default), 1..8, and N or more (exact).
func FuzzRobustnessMatchesGraphReference(f *testing.F) {
	f.Add(byte(0), byte(2), byte(2), byte(4), byte(30), uint64(20), []byte{0, 1, 1, 2, 2, 2, 2, 3, 3, 0, 0, 1, 4, 5, 5, 5})
	f.Add(byte(1), byte(1), byte(0), byte(1), byte(40), uint64(7), []byte(nil))
	f.Add(byte(2), byte(2), byte(1), byte(0), byte(39), uint64(0x20103), []byte(nil))
	f.Fuzz(func(t *testing.T, shape, strat, piv, stepB, maxB byte, seed uint64, edges []byte) {
		if len(edges) > 256 {
			t.Skip("edge list too long for fuzz budget")
		}
		g := fuzzRobustnessGraph(t, shape, seed, edges)
		cfg := RobustnessConfig{
			Strategy: RemoveRandom + RemovalStrategy(strat%3),
			StepFrac: float64(1+stepB%25) / 100,
			MaxFrac:  float64(1+maxB%100) / 100,
		}
		switch piv % 3 {
		case 1:
			cfg.BetweennessPivots = 1 + int(piv/3)%8
		case 2:
			cfg.BetweennessPivots = g.N() + int(piv/3)%3
		}
		frozen := g.Freeze()
		pts, steps, err := RobustnessWith(frozen, cfg, xrand.New(seed))
		// The reference mutates g; frozen shares nothing with it.
		wantPts, wantSteps, wantErr := referenceRobustnessWith(g, cfg, xrand.New(seed))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: error %v, reference %v", cfg, err, wantErr)
		}
		if len(pts) != len(wantPts) || len(steps) != len(wantSteps) {
			t.Fatalf("%+v: %d points, %d steps; reference %d, %d", cfg, len(pts), len(steps), len(wantPts), len(wantSteps))
		}
		for i := range pts {
			if pts[i] != wantPts[i] {
				t.Fatalf("%+v: point %d %+v, reference %+v", cfg, i, pts[i], wantPts[i])
			}
		}
		for i := range steps {
			if steps[i] != wantSteps[i] {
				t.Fatalf("%+v: step %d %+v, reference %+v", cfg, i, steps[i], wantSteps[i])
			}
		}
	})
}

// TestBetweennessAttackAllocsPerStep pins that the betweenness attack
// reuses its state across steps: running four times the steps allocates
// only a small constant per extra step (the grown point and step slices),
// never another N-sized array. Not parallel: it reads the process-wide
// allocation counter.
func TestBetweennessAttackAllocsPerStep(t *testing.T) {
	g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 2}, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze()
	allocated := func(maxFrac float64) (uint64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, steps, err := RobustnessWith(f, RobustnessConfig{
			Strategy: RemoveHighestBetweenness, StepFrac: 0.01, MaxFrac: maxFrac,
			BetweennessPivots: 8,
		}, xrand.New(13))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(steps)
	}
	short, shortSteps := allocated(0.05)
	long, longSteps := allocated(0.2)
	if longSteps != 4*shortSteps {
		t.Fatalf("%d and %d steps, want a 1:4 ratio", shortSteps, longSteps)
	}
	perStep := (int64(long) - int64(short)) / int64(longSteps-shortSteps)
	if perStep > 512 {
		t.Fatalf("each extra step allocates %d B (%d B for %d steps, %d B for %d), want a small constant",
			perStep, short, shortSteps, long, longSteps)
	}
}
