package content

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/xrand"
)

// TestGoldenFloodSuccess pins the flooding query resolver's exact output —
// Found and MeanMessages — for every replication strategy at TTLs 0, 1, 3
// and 6 on PA overlays with and without a hard cutoff, so a change to the
// flood kernel underneath cannot move a single query's hit or message
// count unnoticed. The queries draw from one stream per case, so the
// sources (and the messages) repeat across strategies; only Found differs.
func TestGoldenFloodSuccess(t *testing.T) {
	t.Parallel()
	type key struct {
		kc    int
		strat Strategy
		ttl   int
	}
	want := map[key]struct {
		found int
		msgs  float64
	}{
		{gen.NoCutoff, Uniform, 0}:      {1, 0},
		{gen.NoCutoff, Uniform, 1}:      {1, 4.205},
		{gen.NoCutoff, Uniform, 3}:      {166, 380.6075},
		{gen.NoCutoff, Uniform, 6}:      {400, 5678.82},
		{gen.NoCutoff, Proportional, 0}: {5, 0},
		{gen.NoCutoff, Proportional, 1}: {23, 4.205},
		{gen.NoCutoff, Proportional, 3}: {268, 380.6075},
		{gen.NoCutoff, Proportional, 6}: {400, 5678.82},
		{gen.NoCutoff, SquareRoot, 0}:   {3, 0},
		{gen.NoCutoff, SquareRoot, 1}:   {7, 4.205},
		{gen.NoCutoff, SquareRoot, 3}:   {243, 380.6075},
		{gen.NoCutoff, SquareRoot, 6}:   {400, 5678.82},
		{10, Uniform, 0}:                {1, 0},
		{10, Uniform, 1}:                {3, 4.14},
		{10, Uniform, 3}:                {71, 111.1825},
		{10, Uniform, 6}:                {400, 3974.4825},
		{10, Proportional, 0}:           {5, 0},
		{10, Proportional, 1}:           {26, 4.14},
		{10, Proportional, 3}:           {187, 111.1825},
		{10, Proportional, 6}:           {393, 3974.4825},
		{10, SquareRoot, 0}:             {3, 0},
		{10, SquareRoot, 1}:             {10, 4.14},
		{10, SquareRoot, 3}:             {152, 111.1825},
		{10, SquareRoot, 6}:             {398, 3974.4825},
	}
	for _, kc := range []int{gen.NoCutoff, 10} {
		g, _, err := gen.PA(gen.PAConfig{N: 2000, M: 2, KC: kc}, xrand.New(71))
		if err != nil {
			t.Fatal(err)
		}
		f := g.Freeze()
		c := mustCatalog(t, 100, 1)
		for _, strat := range []Strategy{Uniform, Proportional, SquareRoot} {
			p, err := Replicate(c, f.N(), 400, strat, xrand.New(73))
			if err != nil {
				t.Fatal(err)
			}
			for _, ttl := range []int{0, 1, 3, 6} {
				res, err := FloodSuccess(f, p, c, 400, ttl, xrand.New(79))
				if err != nil {
					t.Fatal(err)
				}
				w := want[key{kc, strat, ttl}]
				if res != (FloodResult{Queries: 400, Found: w.found, MeanMessages: w.msgs}) {
					t.Errorf("kc=%d %s ttl=%d: got %+v, want Found %d MeanMessages %v", kc, strat, ttl, res, w.found, w.msgs)
				}
			}
		}
	}
}
