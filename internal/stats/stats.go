// Package stats provides the distribution statistics used to analyze
// generated topologies: degree distributions P(k), complementary CDFs,
// logarithmic binning, power-law exponent estimation, and the natural-cutoff
// formulas the paper quotes (Aiello et al. and Dorogovtsev et al.).
//
// Two exponent estimators are provided because the paper fits straight lines
// on log-log plots (least squares) while the modern standard is the discrete
// maximum-likelihood (Hill) estimator; reporting both brackets the paper's
// measurement procedure.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned by estimators that need more observations
// than were supplied.
var ErrInsufficientData = errors.New("stats: insufficient data")

// DegreeDist is a normalized degree distribution: P[k] is the probability
// that a uniformly random node has degree k.
type DegreeDist struct {
	// P maps degree -> probability. Degrees with zero count are absent.
	P map[int]float64
	// N is the number of nodes the distribution was computed from.
	N int
}

// NewDegreeDist converts a degree histogram (counts[k] = #nodes of degree
// k) into a normalized distribution.
func NewDegreeDist(counts []int) DegreeDist {
	n := 0
	for _, c := range counts {
		n += c
	}
	d := DegreeDist{P: make(map[int]float64), N: n}
	if n == 0 {
		return d
	}
	for k, c := range counts {
		if c > 0 {
			d.P[k] = float64(c) / float64(n)
		}
	}
	return d
}

// Degrees returns the support of the distribution in ascending order.
func (d DegreeDist) Degrees() []int {
	ks := make([]int, 0, len(d.P))
	for k := range d.P {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// Mean returns the mean degree.
func (d DegreeDist) Mean() float64 {
	var mean float64
	for k, p := range d.P {
		mean += float64(k) * p
	}
	return mean
}

// CCDF returns the complementary cumulative distribution
// F(k) = P(degree >= k) evaluated at each degree in the support, ascending.
func (d DegreeDist) CCDF() (ks []int, f []float64) {
	ks = d.Degrees()
	f = make([]float64, len(ks))
	tail := 1.0
	for i, k := range ks {
		f[i] = tail
		tail -= d.P[k]
	}
	return ks, f
}

// MergeDegreeDists averages several distributions (e.g. 10 network
// realizations, as the paper does for every data point). Each input is
// weighted by its node count.
func MergeDegreeDists(ds []DegreeDist) DegreeDist {
	out := DegreeDist{P: make(map[int]float64)}
	for _, d := range ds {
		out.N += d.N
	}
	if out.N == 0 {
		return out
	}
	for _, d := range ds {
		w := float64(d.N) / float64(out.N)
		for k, p := range d.P {
			out.P[k] += w * p
		}
	}
	return out
}

// BinnedPoint is one logarithmic bin of a degree distribution.
type BinnedPoint struct {
	K float64 // geometric center of the bin
	P float64 // probability density within the bin
}

// LogBin aggregates a degree distribution into logarithmically spaced bins
// with the given ratio between consecutive bin edges (e.g. 1.5 or 2).
// Log-binning is how the paper's figures tame the noisy power-law tail.
// Bins with zero mass are omitted. ratio must exceed 1.
func LogBin(d DegreeDist, ratio float64) ([]BinnedPoint, error) {
	if ratio <= 1 {
		return nil, fmt.Errorf("stats: log-bin ratio %v must be > 1", ratio)
	}
	ks := d.Degrees()
	if len(ks) == 0 {
		return nil, ErrInsufficientData
	}
	var pts []BinnedPoint
	lo := 1.0
	if ks[0] == 0 {
		// Degree-0 nodes cannot live on a log axis; report them as their
		// own point at k=0 is meaningless, so skip (standard practice).
		ks = ks[1:]
		if len(ks) == 0 {
			return nil, ErrInsufficientData
		}
	}
	if float64(ks[0]) > lo {
		lo = float64(ks[0])
	}
	maxK := float64(ks[len(ks)-1])
	i := 0
	for lo <= maxK {
		hi := lo * ratio
		var mass float64
		for i < len(ks) && float64(ks[i]) < hi {
			mass += d.P[ks[i]]
			i++
		}
		width := hi - lo
		if mass > 0 && width > 0 {
			pts = append(pts, BinnedPoint{K: math.Sqrt(lo * hi), P: mass / width})
		}
		lo = hi
	}
	return pts, nil
}

// PowerLawFit is the result of fitting P(k) ~ k^(-gamma).
type PowerLawFit struct {
	// Gamma is the estimated exponent (positive; P(k) ~ k^-Gamma).
	Gamma float64
	// StdErr is the standard error of Gamma.
	StdErr float64
	// KMin is the smallest degree included in the fit.
	KMin int
	// Points is the number of observations used.
	Points int
}

// FitPowerLawLS fits gamma by least squares on (log k, log P(k)) for
// degrees k >= kMin and k <= kMax (kMax <= 0 means unbounded). This mirrors
// the straight-line fits in the paper's figures. Excluding the spike at the
// hard cutoff is achieved by passing kMax = cutoff-1, as the paper does when
// it reports "exponents with the jump taken into account".
func FitPowerLawLS(d DegreeDist, kMin, kMax int) (PowerLawFit, error) {
	if kMin < 1 {
		kMin = 1
	}
	var xs, ys []float64
	for k, p := range d.P {
		if k < kMin || p <= 0 {
			continue
		}
		if kMax > 0 && k > kMax {
			continue
		}
		xs = append(xs, math.Log(float64(k)))
		ys = append(ys, math.Log(p))
	}
	if len(xs) < 3 {
		return PowerLawFit{}, fmt.Errorf("%w: %d usable degrees (need 3)", ErrInsufficientData, len(xs))
	}
	slope, stderr := linregSlope(xs, ys)
	return PowerLawFit{Gamma: -slope, StdErr: stderr, KMin: kMin, Points: len(xs)}, nil
}

// linregSlope returns the OLS slope of y on x and its standard error.
func linregSlope(xs, ys []float64) (slope, stderr float64) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, math.Inf(1)
	}
	slope = sxy / sxx
	if len(xs) <= 2 {
		return slope, math.Inf(1)
	}
	var sse float64
	for i := range xs {
		resid := ys[i] - my - slope*(xs[i]-mx)
		sse += resid * resid
	}
	stderr = math.Sqrt(sse / (n - 2) / sxx)
	return slope, stderr
}

// FitPowerLawBinned fits gamma by least squares on logarithmically binned
// data, which is how the paper's log-log figures are fitted: raw tails have
// one node per degree and bias a direct LS fit toward shallow slopes, while
// log-binning equalizes the noise across decades. kMin/kMax bound the
// degrees included (kMax <= 0 means unbounded); pass kMax = cutoff-1 to
// exclude the hard-cutoff spike.
func FitPowerLawBinned(d DegreeDist, ratio float64, kMin, kMax int) (PowerLawFit, error) {
	if kMin < 1 {
		kMin = 1
	}
	trimmed := DegreeDist{P: make(map[int]float64, len(d.P)), N: d.N}
	for k, p := range d.P {
		if k < kMin || (kMax > 0 && k > kMax) {
			continue
		}
		trimmed.P[k] = p
	}
	pts, err := LogBin(trimmed, ratio)
	if err != nil {
		return PowerLawFit{}, err
	}
	if len(pts) < 3 {
		return PowerLawFit{}, fmt.Errorf("%w: %d log bins (need 3)", ErrInsufficientData, len(pts))
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i] = math.Log(pt.K)
		ys[i] = math.Log(pt.P)
	}
	slope, stderr := linregSlope(xs, ys)
	return PowerLawFit{Gamma: -slope, StdErr: stderr, KMin: kMin, Points: len(pts)}, nil
}

// FitPowerLawMLE estimates gamma with the discrete maximum-likelihood (Hill)
// estimator over individual node degrees >= kMin:
//
//	gamma = 1 + n / sum(ln(k_i / (kMin - 0.5)))
//
// degrees is the raw degree sequence (one entry per node).
func FitPowerLawMLE(degrees []int, kMin int) (PowerLawFit, error) {
	if kMin < 1 {
		kMin = 1
	}
	var sum float64
	n := 0
	base := float64(kMin) - 0.5
	for _, k := range degrees {
		if k < kMin {
			continue
		}
		sum += math.Log(float64(k) / base)
		n++
	}
	if n < 10 || sum == 0 {
		return PowerLawFit{}, fmt.Errorf("%w: %d tail observations (need 10)", ErrInsufficientData, n)
	}
	gamma := 1 + float64(n)/sum
	return PowerLawFit{
		Gamma:  gamma,
		StdErr: (gamma - 1) / math.Sqrt(float64(n)),
		KMin:   kMin,
		Points: n,
	}, nil
}

// NaturalCutoffAiello returns the Aiello et al. natural cutoff
// k_nc ~ N^(1/gamma) (paper Eq. 2).
func NaturalCutoffAiello(n int, gamma float64) float64 {
	return math.Pow(float64(n), 1/gamma)
}

// NaturalCutoffDorogovtsev returns the Dorogovtsev et al. natural cutoff
// k_nc ~ m·N^(1/(gamma-1)) (paper Eq. 4). For gamma = 3 this reduces to
// m·sqrt(N) (paper Eq. 5).
func NaturalCutoffDorogovtsev(n, m int, gamma float64) float64 {
	return float64(m) * math.Pow(float64(n), 1/(gamma-1))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than two
// values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}
