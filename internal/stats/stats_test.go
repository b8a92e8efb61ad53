package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"scalefree/internal/xrand"
)

func TestNewDegreeDist(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist([]int{0, 2, 1, 1}) // 2 nodes deg1, 1 deg2, 1 deg3
	if d.N != 4 {
		t.Fatalf("N = %d", d.N)
	}
	if d.P[1] != 0.5 || d.P[2] != 0.25 || d.P[3] != 0.25 {
		t.Fatalf("P = %v", d.P)
	}
	if _, ok := d.P[0]; ok {
		t.Fatal("zero-count degree present")
	}
}

func TestDegreeDistEmpty(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist(nil)
	if d.N != 0 || len(d.P) != 0 {
		t.Fatalf("empty dist: %+v", d)
	}
	if d.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestDegreeDistMean(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist([]int{0, 0, 4}) // all 4 nodes have degree 2
	if d.Mean() != 2 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestDegreesSorted(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist([]int{0, 5, 0, 3, 2})
	ks := d.Degrees()
	want := []int{1, 3, 4}
	if len(ks) != len(want) {
		t.Fatalf("degrees %v", ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("degrees %v, want %v", ks, want)
		}
	}
}

func TestCCDF(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist([]int{0, 2, 1, 1})
	ks, f := d.CCDF()
	if len(ks) != 3 {
		t.Fatalf("ccdf support %v", ks)
	}
	if math.Abs(f[0]-1.0) > 1e-12 {
		t.Fatalf("F(1) = %v", f[0])
	}
	if math.Abs(f[1]-0.5) > 1e-12 {
		t.Fatalf("F(2) = %v", f[1])
	}
	if math.Abs(f[2]-0.25) > 1e-12 {
		t.Fatalf("F(3) = %v", f[2])
	}
}

func TestCCDFMonotoneProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		counts := make([]int, rng.IntRange(2, 30))
		for i := range counts {
			counts[i] = rng.Intn(10)
		}
		_, ccdf := NewDegreeDist(counts).CCDF()
		for i := 1; i < len(ccdf); i++ {
			if ccdf[i] > ccdf[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDegreeDists(t *testing.T) {
	t.Parallel()
	a := NewDegreeDist([]int{0, 4})    // 4 nodes deg1
	b := NewDegreeDist([]int{0, 0, 4}) // 4 nodes deg2
	m := MergeDegreeDists([]DegreeDist{a, b})
	if m.N != 8 {
		t.Fatalf("merged N = %d", m.N)
	}
	if math.Abs(m.P[1]-0.5) > 1e-12 || math.Abs(m.P[2]-0.5) > 1e-12 {
		t.Fatalf("merged P = %v", m.P)
	}
}

func TestMergeDegreeDistsWeighted(t *testing.T) {
	t.Parallel()
	a := NewDegreeDist([]int{0, 3})    // 3 nodes deg1
	b := NewDegreeDist([]int{0, 0, 1}) // 1 node deg2
	m := MergeDegreeDists([]DegreeDist{a, b})
	if math.Abs(m.P[1]-0.75) > 1e-12 {
		t.Fatalf("P[1] = %v, want 0.75", m.P[1])
	}
}

func TestMergeEmpty(t *testing.T) {
	t.Parallel()
	m := MergeDegreeDists(nil)
	if m.N != 0 {
		t.Fatalf("N = %d", m.N)
	}
}

func TestLogBinConservesMassDensity(t *testing.T) {
	t.Parallel()
	// Power-law-ish distribution; total probability over bins
	// (density*width) should be ~1 minus any skipped degree-0 mass.
	counts := make([]int, 1000)
	for k := 1; k < 1000; k++ {
		counts[k] = int(1e6 / float64(k*k))
	}
	d := NewDegreeDist(counts)
	pts, err := LogBin(d, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no bins")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].K <= pts[i-1].K {
			t.Fatal("bin centers not increasing")
		}
	}
	// Density must decrease roughly like k^-2.
	first, last := pts[0], pts[len(pts)-1]
	slope := math.Log(last.P/first.P) / math.Log(last.K/first.K)
	if slope > -1.5 || slope < -2.5 {
		t.Fatalf("binned slope %.2f, want ~-2", slope)
	}
}

func TestLogBinBadRatio(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist([]int{0, 1})
	if _, err := LogBin(d, 1.0); err == nil {
		t.Fatal("ratio 1.0 should error")
	}
}

func TestLogBinEmpty(t *testing.T) {
	t.Parallel()
	if _, err := LogBin(NewDegreeDist(nil), 2); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	// Only degree-0 nodes: also insufficient.
	if _, err := LogBin(NewDegreeDist([]int{5}), 2); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

// synthPowerLaw builds an exact power-law histogram P(k) ∝ k^-gamma.
func synthPowerLaw(gamma float64, kMax, scale int) []int {
	counts := make([]int, kMax+1)
	for k := 1; k <= kMax; k++ {
		counts[k] = int(float64(scale) * math.Pow(float64(k), -gamma))
	}
	return counts
}

func TestFitPowerLawLSRecovers(t *testing.T) {
	t.Parallel()
	for _, gamma := range []float64{2.2, 2.6, 3.0} {
		d := NewDegreeDist(synthPowerLaw(gamma, 300, 10_000_000))
		fit, err := FitPowerLawLS(d, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Gamma-gamma) > 0.1 {
			t.Errorf("gamma %.1f: fit %.3f", gamma, fit.Gamma)
		}
	}
}

func TestFitPowerLawLSRespectsKRange(t *testing.T) {
	t.Parallel()
	// Power law with a spike at k=50 (hard-cutoff accumulation); fitting
	// with kMax=49 must ignore the spike.
	counts := synthPowerLaw(2.5, 49, 10_000_000)
	counts = append(counts, 500_000) // huge spike at k=50
	d := NewDegreeDist(counts)
	fitAll, err := FitPowerLawLS(d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fitTrim, err := FitPowerLawLS(d, 1, 49)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fitTrim.Gamma-2.5) > 0.1 {
		t.Errorf("trimmed fit %.3f, want ~2.5", fitTrim.Gamma)
	}
	if fitAll.Gamma >= fitTrim.Gamma {
		t.Errorf("spike should flatten the fit: all=%.3f trim=%.3f", fitAll.Gamma, fitTrim.Gamma)
	}
}

func TestFitPowerLawLSInsufficient(t *testing.T) {
	t.Parallel()
	d := NewDegreeDist([]int{0, 5, 3}) // two support points
	if _, err := FitPowerLawLS(d, 1, 0); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

func TestFitPowerLawMLERecovers(t *testing.T) {
	t.Parallel()
	rng := xrand.New(99)
	for _, gamma := range []float64{2.2, 3.0} {
		degrees := make([]int, 200000)
		for i := range degrees {
			degrees[i] = rng.PowerLawInt(2, 100000, gamma)
		}
		// The Hill approximation is biased for very small kMin; fit in the
		// tail, as the estimator is intended to be used.
		fit, err := FitPowerLawMLE(degrees, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Gamma-gamma) > 0.15 {
			t.Errorf("gamma %.1f: MLE fit %.3f ± %.3f", gamma, fit.Gamma, fit.StdErr)
		}
	}
}

func TestFitPowerLawMLEInsufficient(t *testing.T) {
	t.Parallel()
	if _, err := FitPowerLawMLE([]int{5, 6, 7}, 2); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FitPowerLawMLE(nil, 1); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

func TestNaturalCutoffs(t *testing.T) {
	t.Parallel()
	// Paper Eq. 5: for gamma = 3, Dorogovtsev cutoff = m*sqrt(N).
	if got, want := NaturalCutoffDorogovtsev(10000, 2, 3), 200.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Dorogovtsev(1e4, 2, 3) = %v, want %v", got, want)
	}
	// Aiello Eq. 2: N^(1/gamma).
	if got, want := NaturalCutoffAiello(1000, 3), math.Pow(1000, 1.0/3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Aiello = %v, want %v", got, want)
	}
	// Dorogovtsev cutoff must dominate Aiello for gamma in (2,3].
	for _, gamma := range []float64{2.2, 2.6, 3.0} {
		if NaturalCutoffDorogovtsev(10000, 1, gamma) <= NaturalCutoffAiello(10000, gamma) {
			t.Errorf("gamma %.1f: Dorogovtsev should exceed Aiello", gamma)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	t.Parallel()
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if got := StdDev(xs); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("std = %v", got)
	}
	if StdDev([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Fatal("degenerate std/mean")
	}
}

func BenchmarkFitPowerLawLS(b *testing.B) {
	d := NewDegreeDist(synthPowerLaw(2.5, 1000, 10_000_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = FitPowerLawLS(d, 1, 0)
	}
}

func BenchmarkLogBin(b *testing.B) {
	d := NewDegreeDist(synthPowerLaw(2.5, 1000, 10_000_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = LogBin(d, 1.5)
	}
}
