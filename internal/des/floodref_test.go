package des

import (
	"fmt"
	"reflect"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// FuzzFloodMatchesHeapReference holds Flood to floodHeapRef, every
// Metrics field compared with reflect.DeepEqual, over four floods per
// pair of Sims (so each run starts on the previous one's leftovers). The
// topology is a PA overlay when edges holds fewer than two bytes, and
// otherwise a multigraph of up to 64 nodes (loops and parallel edges
// kept). knobs picks the first flood's Base, Jitter, loss, TTL and
// failure class from the grids below; the other three floods draw theirs,
// and every source, from seed. The grids straddle the queue's paths: a
// Base of 0 or 1e-9 under a wider Jitter inserts copies into the run
// being consumed, a Jitter of 0 makes whole hop levels tie in time, and
// a Jitter of 1e-9 clusters each level's arrivals.
func FuzzFloodMatchesHeapReference(f *testing.F) {
	// knobs = base + 6*(jitter + 5*(loss + 2*(ttl + 4*fail))), indexes
	// into the grids below.
	knob := func(base, jitter, loss, ttl, fail int) uint32 {
		return uint32(base + 6*(jitter+5*(loss+2*(ttl+4*fail))))
	}
	// Overtakes while pending: Base 0.5, Jitter 10, TTL 30 on PA.
	f.Add(uint8(200), []byte{}, knob(3, 4, 0, 3, 0), uint64(1))
	// Late inserts: Base 0 under Jitter 1 with loss, and Base 1e-9 under
	// Jitter 0.5 with crashes and cuts.
	f.Add(uint8(120), []byte{}, knob(0, 3, 1, 3, 0), uint64(2))
	f.Add(uint8(90), []byte{}, knob(1, 2, 0, 3, 1), uint64(3))
	// A late insert overtakes the earliest pend copy, so the next run
	// forms from a low bound with nothing under it and starts again.
	f.Add(uint8(30), []byte{}, knob(2, 4, 0, 3, 0), uint64(43))
	// Equal-time ties: Jitter 0 at Base 1 and at Base 0, on a multigraph.
	f.Add(uint8(150), []byte{}, knob(4, 0, 0, 3, 0), uint64(4))
	f.Add(uint8(12), []byte{0, 1, 1, 2, 2, 0, 5, 5, 7, 8, 7, 8, 1, 2, 2, 3, 3, 4, 4, 0}, knob(0, 0, 0, 2, 0), uint64(5))
	// Clustered arrivals, failures.
	f.Add(uint8(40), []byte{}, knob(4, 1, 0, 3, 3), uint64(6))
	f.Add(uint8(30), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 20, 21, 3, 3, 0, 1, 6, 0, 2, 5}, knob(5, 4, 1, 3, 2), uint64(7))
	f.Fuzz(func(t *testing.T, nodes uint8, edges []byte, knobs uint32, seed uint64) {
		var fz *graph.Frozen
		if len(edges) < 2 {
			g, _, err := gen.PA(gen.PAConfig{N: 20 + int(nodes), M: 1 + int(seed%3), KC: []int{gen.NoCutoff, 10}[seed/3%2]}, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			fz = g.Freeze()
		} else {
			n := int(nodes)%64 + 1
			g := graph.New(n)
			for i := 0; i+1 < len(edges); i += 2 {
				if err := g.AddEdge(int(edges[i])%n, int(edges[i+1])%n); err != nil {
					t.Fatal(err)
				}
			}
			fz = g.Freeze()
		}
		bases := []float64{0, 1e-9, 0.001, 0.5, 1, 3}
		jitters := []float64{0, 1e-9, 0.5, 1, 10}
		losses := []float64{0, 0.1}
		ttls := []int{0, 1, 3, 30}
		ph := xrand.Phases{Seed: seed, Realization: seed % 7}
		fails := []FailPlan{
			{},
			{NodeFrac: 0.2, LinkFrac: 0.2, MTBF: 2, Phases: ph},
			{NodeFrac: 0.3, MTBF: 2, Phases: ph},
			{LinkFrac: 0.3, MTBF: 2, Phases: ph},
		}
		pick := xrand.New(seed)
		sim, ref := NewSim(0), NewSim(0)
		k := int(knobs)
		for i := 0; i < 4; i++ {
			if i > 0 {
				k = pick.Intn(6 * 5 * 2 * 4 * 4)
			}
			cfg := Config{
				MaxTTL: ttls[k/60%4],
				Latency: Latency{
					Base:   bases[k%6],
					Jitter: jitters[k/6%5],
					Phases: ph,
				},
				Loss: losses[k/30%2],
				Fail: fails[k/240%4],
			}
			src := pick.Intn(fz.N())
			want, err := ref.floodHeapRef(fz, src, cfg, xrand.NewStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Flood(fz, src, cfg, xrand.NewStream(seed, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("flood %d from %d, %+v:\n got %+v\nwant %+v", i, src, cfg, got, want)
			}
		}
	})
}

// floodHeapRef is Flood as it ran on KWalk's event heap, kept as the
// oracle of FuzzFloodMatchesHeapReference: a copy that beats its
// receiver's best pending arrival is pushed as a 32-byte event, one it
// overtakes stays queued and pops as an ordinary duplicate, and every
// pop sifts the 4-ary heap. Flood must report the same Metrics bit for
// bit.
func (s *Sim) floodHeapRef(f *graph.Frozen, src int, cfg Config, rng *xrand.RNG) (Metrics, error) {
	if err := validate(f, src); err != nil {
		return Metrics{}, err
	}
	if cfg.MaxTTL < 0 {
		return Metrics{}, fmt.Errorf("%w: %d", ErrBadTTL, cfg.MaxTTL)
	}
	if rng == nil && cfg.Loss > 0 {
		rng = xrand.New(0)
	}
	s.reset()
	s.ensure(f.N())
	ep := s.newEpoch()
	m := Metrics{
		HitsByHop: s.intBuf(cfg.MaxTTL + 1),
		SentByHop: s.intBuf(cfg.MaxTTL + 1),
		TimeByHop: s.floatBuf(cfg.MaxTTL + 1),
	}
	failing := cfg.Fail.Enabled()
	var crashAt []float64
	var linkSel, linkAt xrand.ChunkRoot
	if failing {
		crashAt = s.crashTimes(cfg.Fail, f.N())
		linkSel, linkAt = cfg.Fail.linkRoots()
		if crashAt[src] <= 0 {
			// The source is down at time 0: its own copy fizzles uncounted
			// and nothing is ever sent.
			return m, nil
		}
	}
	lat, root := cfg.Latency, cfg.Latency.root()
	mark, best := s.mark, s.best
	s.heap = s.heap[:0]
	s.push(event{node: int32(src), from: -1})
	seq := uint64(1)
	for len(s.heap) > 0 {
		ev := s.pop()
		if ev.hop > 0 {
			m.Delivered++
			if ev.time > m.Completion {
				m.Completion = ev.time
			}
		}
		if mark[ev.node] != ep {
			mark[ev.node] = ep
			m.Hits++
			m.HitsByHop[ev.hop]++
			m.TimeByHop[ev.hop] += ev.time
		} else {
			// A queued copy that a later-sent, earlier-arriving one
			// overtook.
			m.Duplicates++
			continue
		}
		if int(ev.hop) == cfg.MaxTTL {
			continue
		}
		for _, w := range f.Neighbors(int(ev.node)) {
			if w == ev.from {
				continue
			}
			m.Sent++
			m.SentByHop[ev.hop]++
			if failing && cfg.Fail.edgeDown(linkSel, linkAt, ev.node, w, ev.time) {
				// Partitioned at send time: the copy never leaves.
				m.FailDropped++
				continue
			}
			if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
				m.Dropped++
				continue
			}
			// Every copy in flight takes a key, queued or not, so the
			// queued ones pop in the order they would among all copies.
			at, key := ev.time+lat.edge(root, ev.node, w), seq
			seq++
			if failing && at >= crashAt[w] {
				// The receiver is down on arrival: lost in flight.
				m.FailDropped++
				continue
			}
			if mk := mark[w]; mk == ep || (mk == -ep && at >= best[w]) {
				// w is covered, or a queued copy reaches it first (at
				// equal times the queued one holds the smaller key):
				// this one can only arrive as a duplicate.
				m.Delivered++
				m.Duplicates++
				if at > m.Completion {
					m.Completion = at
				}
				continue
			}
			mark[w], best[w] = -ep, at
			s.push(event{time: at, key: key, node: w, from: ev.node, hop: ev.hop + 1})
		}
	}
	return m, nil
}
