package sim

// Estimator suite: the PR-9 estimators (batched pivot betweenness in
// attack, landmark path stats in table1, capped delivery-walk budgets)
// must be (a) schedule-invariant — bit-identical figures for any
// Workers — and (b) in agreement with the exact measurements they replace
// at paper scale. These tests are in CI's race matrix (the "Estimator"
// pattern).

import (
	"reflect"
	"strings"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/xrand"
)

func estimatorScale() Scale {
	return Scale{
		NDegree: 2000, NSearch: 900, NSubstrate: 1200, NOverlay: 600,
		Realizations: 2, Sources: 8, MaxTTLFlood: 12, MaxTTLNF: 6,
		BCPivots: 16, PathLandmarks: 4, PathPairs: 120, WalkCap: 30_000,
	}
}

// TestEstimatorSpecsScheduleInvariant pins that every estimator-backed
// spec produces bit-identical figures for any parallelism budget.
func TestEstimatorSpecsScheduleInvariant(t *testing.T) {
	t.Parallel()
	specs := []struct {
		name string
		run  func(Scale, uint64) ([]Figure, error)
	}{
		{"attack", Attack},
		{"table1", Table1},
		{"delivery", Delivery},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			base := estimatorScale()
			base.Workers = 1
			want, err := spec.run(base, 77)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 0} {
				sc := estimatorScale()
				sc.Workers = workers
				got, err := spec.run(sc, 77)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s differs at workers=%d", spec.name, workers)
				}
			}
		})
	}
}

// TestEstimatorLandmarkAgreementPaperScale is the table1 agreement gate at
// paper scale: on a 10⁴-node γ=2.2 CM giant (the paper's search topology)
// the landmark mean must bracket and closely track the exact sampled-BFS
// mean.
func TestEstimatorLandmarkAgreementPaperScale(t *testing.T) {
	t.Parallel()
	f, _, err := gen.CMFrozen(gen.CMConfig{N: 10_000, M: 2, Gamma: 2.2}, gen.NewBuild(xrand.Phases{Seed: 12}, 1))
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := f.InducedFrozen(f.GiantComponent())
	exact := sub.SamplePathStats(40, xrand.New(5)).MeanDistance
	ls := sub.LandmarkPathStats(16, 2000, xrand.New(5))
	if ls.MeanLowerBound > exact || ls.MeanDistance < exact*0.97 {
		t.Fatalf("exact mean %.3f outside landmark bracket [%.3f, %.3f]",
			exact, ls.MeanLowerBound, ls.MeanDistance)
	}
	if ls.MeanDistance > exact*1.25 {
		t.Fatalf("landmark estimate %.3f too loose vs exact %.3f (>25%%)", ls.MeanDistance, exact)
	}
}

// TestEstimatorDeliveryCapAgreement: a generous cap is a no-op — the
// figure is bit-identical to the uncapped run and reports zero
// truncations — while an aggressive cap documents its truncations in the
// notes.
func TestEstimatorDeliveryCapAgreement(t *testing.T) {
	t.Parallel()
	sc := estimatorScale()
	sc.WalkCap = 0
	uncapped, err := Delivery(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc.WalkCap = 1 << 30
	generous, err := Delivery(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncapped[0].Series, generous[0].Series) {
		t.Fatal("generous walk cap changed the delivery series")
	}
	if !strings.Contains(generous[0].Notes, "no walks truncated") {
		t.Fatalf("generous cap notes missing truncation accounting: %q", generous[0].Notes)
	}
	sc.WalkCap = 6000 // below some first-arrival times at the larger sizes
	tight, err := Delivery(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tight[0].Notes, "truncated") || strings.Contains(tight[0].Notes, "no walks truncated") {
		t.Fatalf("tight cap notes missing truncation counts: %q", tight[0].Notes)
	}
}

// TestEstimatorAttackSeriesShape: the attack figure now carries the
// batched betweenness series and its stderr column alongside the two
// legacy strategies per cutoff, and the stderr series is positive where
// nodes were removed by estimated score.
func TestEstimatorAttackSeriesShape(t *testing.T) {
	t.Parallel()
	sc := estimatorScale()
	figs, err := Attack(sc, 21)
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	// 2 cutoffs × (random, degree) + 2 cutoffs × (betweenness, stderr).
	if len(fig.Series) != 8 {
		t.Fatalf("attack figure has %d series, want 8", len(fig.Series))
	}
	var bcSeries, seSeries int
	for _, s := range fig.Series {
		if strings.Contains(s.Label, "betweenness attack") {
			if strings.Contains(s.Label, "stderr") {
				seSeries++
				pos := 0
				for _, p := range s.Points {
					if p.Y > 0 {
						pos++
					}
				}
				if pos == 0 {
					t.Fatalf("stderr series %q all zero", s.Label)
				}
			} else {
				bcSeries++
				last := s.Points[len(s.Points)-1]
				if last.Y >= 1 {
					t.Fatalf("betweenness series %q removed 40%% with no damage", s.Label)
				}
			}
		}
	}
	if bcSeries != 2 || seSeries != 2 {
		t.Fatalf("betweenness series count = %d, stderr = %d, want 2 and 2", bcSeries, seSeries)
	}
	if !strings.Contains(fig.Notes, "Brandes-Pich") {
		t.Fatalf("attack notes missing estimator documentation: %q", fig.Notes)
	}
}

// TestEstimatorTable1LandmarkNotes: with landmarks enabled the table1
// figure documents the estimator and its bracket; with landmarks off the
// exact path is untouched.
func TestEstimatorTable1LandmarkNotes(t *testing.T) {
	t.Parallel()
	sc := estimatorScale()
	figs, err := Table1(sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(figs[0].Notes, "landmark") {
		t.Fatalf("table1 notes missing landmark documentation: %q", figs[0].Notes)
	}
	for _, s := range figs[0].Series {
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("series %q has non-positive distance estimate", s.Label)
			}
		}
	}
	sc.PathLandmarks = 0
	exactFigs, err := Table1(sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exactFigs[0].Notes, "landmark") {
		t.Fatal("exact table1 run mentions landmarks")
	}
}
