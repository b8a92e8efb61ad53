package sim

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// searchCfg is the tests' shorthand for one search series' settings and
// the scale it runs at (see searchRun).
type searchCfg struct {
	sc           Scale
	alg          algKind
	maxTTL, kMin int
	tag          string
}

// searchSeries is searchBatch for one series.
func searchSeries(label string, factory topoFactory, cfg searchCfg, seed uint64) (Series, error) {
	s, err := searchBatch(cfg.sc, searchRun{label, cfg.tag, factory, cfg.alg, cfg.maxTTL, cfg.kMin, seed})
	if err != nil {
		return Series{}, err
	}
	return s[0], nil
}

// tinyScale keeps spec tests fast while preserving structure.
var tinyScale = Scale{
	NDegree:      1500,
	NSearch:      800,
	NSubstrate:   1200,
	NOverlay:     500,
	Realizations: 2,
	Sources:      4,
	MaxTTLFlood:  8,
	MaxTTLNF:     5,
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	want := []string{
		"fig1a", "fig1b", "fig1c", "fig2", "fig3", "fig4", "fig4g",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"table1", "table2", "messaging",
		"attack", "delivery", "kwalk", "fairness", "strategies", "replication", "churn",
		"desflood", "deskwalk", "desfail",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d specs, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Run == nil || reg[i].Paper == "" || reg[i].Description == "" {
			t.Errorf("spec %s incompletely described", id)
		}
	}
}

func TestLookup(t *testing.T) {
	t.Parallel()
	s, err := Lookup("fig6")
	if err != nil || s.ID != "fig6" {
		t.Fatalf("Lookup(fig6) = %+v, %v", s, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown ID should error")
	}
}

// specDigests pins every registered spec to the bytes it published before
// the two realization engines and the three journaled helpers were folded
// into one path: FNV-64a over each figure's ID, its WriteCSV bytes and its
// Notes, in figure order, at tinyScale and seed 12345, captured at commit
// 37c3cd5. A drifted stream offset, reduction order or x axis fails here
// long before anyone diffs a CSV.
var specDigests = map[string]uint64{
	"fig1a": 0x7d007b0fa29328ae, "fig1b": 0xe94ee8daa856e2a8, "fig1c": 0xde6f694e4497bdbb,
	"fig2": 0x684588a9ea63f751, "fig3": 0x95e13bb692b31347, "fig4": 0x5481c3f64d7a9560,
	"fig4g": 0x90d31fbfb4577511, "fig6": 0xe62b046d5b935add, "fig7": 0xad259c6d4f060050,
	"fig8": 0x000761e52947b430, "fig9": 0x1566e3d3ae3bb8f0, "fig10": 0xbc1d3de3074852ea,
	"fig11": 0xdf1086d9cdedcc08, "fig12": 0x73fedb96ec068502,
	"table1": 0x7cb2851183cb107b, "table2": 0xbd560dd015a97856, "messaging": 0x6a615461cbc0e316,
	"attack": 0x1d5573227ab7d9fa, "delivery": 0x35a0207659018649, "kwalk": 0xf7511c63d3d3fa2a,
	"fairness": 0x1298ce6afe384e2e, "strategies": 0xa16f27113404a17a,
	"replication": 0xbcd63867b6ed4c97, "churn": 0x6b271ba598ec364f,
	"desflood": 0x596c369306d01cb3, "deskwalk": 0xbc92259b40a2d5a6, "desfail": 0x5c7e8d41d4229d16,
}

// figuresDigest hashes what a spec publishes: per figure its ID, CSV bytes
// and Notes.
func figuresDigest(t *testing.T, figs []Figure) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, fig := range figs {
		io.WriteString(h, fig.ID+"\n")
		if err := WriteCSV(h, fig); err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, fig.Notes+"\n")
	}
	return h.Sum64()
}

// TestAllSpecsRun executes every registered experiment at tiny scale,
// checking that each produces non-empty figures with sane structure and
// exactly the golden bytes of specDigests. This is the end-to-end smoke
// test for the whole harness.
func TestAllSpecsRun(t *testing.T) {
	t.Parallel()
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			figs, err := spec.Run(tinyScale, 12345)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if len(figs) == 0 {
				t.Fatalf("%s produced no figures", spec.ID)
			}
			for _, fig := range figs {
				if fig.ID == "" || fig.Title == "" {
					t.Errorf("%s: figure missing ID/title", spec.ID)
				}
				if len(fig.Series) == 0 {
					t.Errorf("%s/%s: no series", spec.ID, fig.ID)
				}
				for _, s := range fig.Series {
					if s.Label == "" {
						t.Errorf("%s/%s: unlabeled series", spec.ID, fig.ID)
					}
				}
			}
			want, ok := specDigests[spec.ID]
			if got := figuresDigest(t, figs); !ok || got != want {
				t.Errorf("%s: figures digest %#x, want %#x (golden: %v)", spec.ID, got, want, ok)
			}
		})
	}
}

func TestSearchSeriesMonotoneHits(t *testing.T) {
	t.Parallel()
	s, err := searchSeries("fl", paTopo(500, 2, 0),
		searchCfg{alg: algFL, maxTTL: 6, sc: Scale{Sources: 5, Realizations: 2}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 6 {
		t.Fatalf("points %d, want 6 (tau=1..6)", len(s.Points))
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y < s.Points[i-1].Y {
			t.Fatalf("mean hits not monotone at %v", s.Points[i].X)
		}
	}
	// FL at tau=6 on a 500-node PA m=2 graph reaches everyone.
	if s.Points[len(s.Points)-1].Y < 400 {
		t.Fatalf("FL coverage %.0f suspiciously low", s.Points[len(s.Points)-1].Y)
	}
}

func TestSearchSeriesRWBudgetBelowNF(t *testing.T) {
	t.Parallel()
	// NF hits >= RW hits at the same message budget, on average (NF does
	// better averaging, §V-B1).
	factory := paTopo(2000, 2, 40)
	cfgNF := searchCfg{alg: algNF, maxTTL: 6, kMin: 2, sc: Scale{Sources: 10, Realizations: 3}}
	cfgRW := cfgNF
	cfgRW.alg = algRW
	nf, err := searchSeries("nf", factory, cfgNF, 9)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := searchSeries("rw", factory, cfgRW, 9)
	if err != nil {
		t.Fatal(err)
	}
	last := len(nf.Points) - 1
	if rw.Points[last].Y > nf.Points[last].Y*1.15 {
		t.Fatalf("RW (%.1f) should not beat NF (%.1f) decisively at equal budget",
			rw.Points[last].Y, nf.Points[last].Y)
	}
}

// TestNFRWCurvesMatchSeparateSweeps pins the fused NF+RW sweep (nfRWBuild)
// to the single-algorithm ones: the NF and RW hits curves of one
// RandomWalkWithNFBudget call per source equal an NF and an RW
// searchSeries over the same seed bit for bit.
func TestNFRWCurvesMatchSeparateSweeps(t *testing.T) {
	t.Parallel()
	const seed = 31
	factory := paTopo(800, 2, 40)
	sc := Scale{Sources: 6, Realizations: 2, MaxTTLNF: 5}
	means, err := realizationBatch(sc, nfRWBuild(sc, seed, "fused", factory, 2))
	if err != nil {
		t.Fatal(err)
	}
	for c, alg := range map[int]algKind{1: algNF, 2: algRW} {
		want, err := searchSeries("s", factory, searchCfg{sc: sc, alg: alg, maxTTL: sc.MaxTTLNF, kMin: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := aggregate("s", blockRow(means[0][0], c), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: fused curve %d differs from its own sweep\n got: %+v\nwant: %+v", alg, c, got, want)
		}
	}
}

// TestMessagingSweepsEachTopologyOnce pins Messaging to one series per
// (m, kc): 4 series of R realizations, each built and swept once (two
// progress steps) and journaled as one record — not one series per curve.
func TestMessagingSweepsEachTopologyOnce(t *testing.T) {
	t.Parallel()
	const seed = 2007
	path := filepath.Join(t.TempDir(), "messaging.journal")
	j, err := OpenJournal(path, "messaging", seed, tinyScale, false)
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale
	sc.Run = NewRunControl(context.Background(), 0, 0, j)
	if _, err := Messaging(sc, seed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	series := 4 * sc.Realizations
	if got := sc.Run.Progress(); got != int64(2*series) {
		t.Errorf("Progress() = %d, want %d (one build and one sweep per realization of 4 series)", got, 2*series)
	}
	written, err := OpenJournal(path, "messaging", seed, tinyScale, true)
	if err != nil {
		t.Fatal(err)
	}
	defer written.Close()
	if got := written.Resumed(); got != series {
		t.Errorf("journal holds %d records, want %d", got, series)
	}
}

func TestWriteCSV(t *testing.T) {
	t.Parallel()
	fig := Figure{
		ID: "x", XLabel: "k", YLabel: "P",
		Series: []Series{{Label: "s1", Points: []Point{{X: 1, Y: 0.5, Err: 0.1}, {X: 2, Y: 0.25}}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "series,k,P,err" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "s1,1,0.5,") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestRenderTable(t *testing.T) {
	t.Parallel()
	fig := Figure{
		ID: "t", Title: "test", XLabel: "tau", YLabel: "hits",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}},
			{Label: "b", Points: []Point{{X: 2, Y: 5}}},
			{Label: "row-only"},
		},
	}
	out := RenderTable(fig)
	for _, want := range []string{"test", "row-only", "a", "b", "10", "20", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderPlot(t *testing.T) {
	t.Parallel()
	fig := Figure{
		ID: "p", Title: "plot", XLabel: "k", YLabel: "P", LogX: true, LogY: true,
		Series: []Series{{Label: "s", Points: []Point{{X: 1, Y: 1}, {X: 10, Y: 0.01}, {X: 100, Y: 0.0001}}}},
	}
	out := RenderPlot(fig, 40, 10)
	if !strings.Contains(out, "plot") || !strings.Contains(out, "*") {
		t.Fatalf("plot output:\n%s", out)
	}
	// Degenerate figure renders a notice, not a panic.
	empty := RenderPlot(Figure{ID: "e", Title: "empty"}, 40, 10)
	if !strings.Contains(empty, "no plottable points") {
		t.Fatalf("empty plot: %q", empty)
	}
}

func TestRenderPlotNonLogAxes(t *testing.T) {
	t.Parallel()
	fig := Figure{
		ID: "lin", Title: "linear", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s", Points: []Point{{X: 0, Y: 0}, {X: 5, Y: 10}}}},
	}
	if out := RenderPlot(fig, 30, 8); !strings.Contains(out, "linear") {
		t.Fatalf("plot: %s", out)
	}
}

func TestAggregate(t *testing.T) {
	t.Parallel()
	s, err := aggregate("x", [][]float64{{0, 1, 2}, {0, 3, 4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points %v", s.Points)
	}
	if s.Points[0].X != 1 || s.Points[0].Y != 2 {
		t.Fatalf("point 0: %+v", s.Points[0])
	}
	if _, err := aggregate("x", nil, 0); err == nil {
		t.Fatal("empty aggregate should error")
	}
}
