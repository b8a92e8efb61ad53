package sim

import (
	"math"
	"strings"
	"testing"
)

// TestScaleValidate walks every workload field through values on both
// sides of its rule: each refusal names the field (and the experiments
// flag that sets it), zero keeps its default meaning except for the four
// counts whose zero measures nothing, and the presets pass while the zero
// Scale does not.
func TestScaleValidate(t *testing.T) {
	t.Parallel()
	for name, sc := range map[string]Scale{"smoke": SmokeScale, "paper": PaperScale, "xl": XLScale} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s preset refused: %v", name, err)
		}
	}
	if err := (Scale{}).Validate(); err == nil || !strings.Contains(err.Error(), "Realizations 0 must be >= 1") {
		t.Errorf("zero Scale: err = %v, want Realizations refused", err)
	}
	check := func(name string, sc Scale, ok bool, v any) {
		t.Helper()
		err := sc.Validate()
		switch {
		case ok && err != nil:
			t.Errorf("%s = %v refused: %v", name, v, err)
		case !ok && err == nil:
			t.Errorf("%s = %v accepted", name, v)
		case !ok && !strings.Contains(err.Error(), name):
			t.Errorf("%s = %v: error %q does not name the field", name, v, err)
		}
	}

	counts := []struct {
		name   string
		set    func(*Scale, int)
		zeroOK bool
	}{
		{"NDegree", func(sc *Scale, v int) { sc.NDegree = v }, true},
		{"NSearch", func(sc *Scale, v int) { sc.NSearch = v }, true},
		{"NSubstrate", func(sc *Scale, v int) { sc.NSubstrate = v }, true},
		{"NOverlay", func(sc *Scale, v int) { sc.NOverlay = v }, true},
		{"Realizations", func(sc *Scale, v int) { sc.Realizations = v }, false},
		{"Sources", func(sc *Scale, v int) { sc.Sources = v }, false},
		{"MaxTTLFlood", func(sc *Scale, v int) { sc.MaxTTLFlood = v }, false},
		{"MaxTTLNF", func(sc *Scale, v int) { sc.MaxTTLNF = v }, false},
		{"Workers (-workers)", func(sc *Scale, v int) { sc.Workers = v }, true},
		{"BCPivots (-bc-pivots)", func(sc *Scale, v int) { sc.BCPivots = v }, true},
		{"PathLandmarks (-path-landmarks)", func(sc *Scale, v int) { sc.PathLandmarks = v }, true},
		{"PathPairs (-path-pairs)", func(sc *Scale, v int) { sc.PathPairs = v }, true},
		{"WalkCap (-walk-cap)", func(sc *Scale, v int) { sc.WalkCap = v }, true},
	}
	for _, c := range counts {
		for _, tc := range []struct {
			v  int
			ok bool
		}{{0, c.zeroOK}, {1, true}, {math.MaxInt, true}, {-1, false}, {math.MinInt, false}} {
			sc := SmokeScale
			c.set(&sc, tc.v)
			check(c.name, sc, tc.ok, tc.v)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	fracs := []struct {
		name string
		set  func(*Scale, float64)
	}{
		{"DESLoss (-loss)", func(sc *Scale, v float64) { sc.DESLoss = v }},
		{"DESFailFrac (-fail-frac)", func(sc *Scale, v float64) { sc.DESFailFrac = v }},
	}
	for _, c := range fracs {
		for _, tc := range []struct {
			v  float64
			ok bool
		}{
			{0, true}, {0.3, true}, {math.Nextafter(1, 0), true},
			{1, false}, {1.5, false}, {-0.1, false}, {nan, false}, {inf, false}, {-inf, false},
		} {
			sc := SmokeScale
			c.set(&sc, tc.v)
			check(c.name, sc, tc.ok, tc.v)
		}
	}

	delays := []struct {
		name string
		set  func(*Scale, float64)
	}{
		{"DESLatencyBase (-latency-base)", func(sc *Scale, v float64) { sc.DESLatencyBase = v }},
		{"DESLatencyJitter (-latency-jitter)", func(sc *Scale, v float64) { sc.DESLatencyJitter = v }},
		{"DESFailMTBF (-fail-mtbf)", func(sc *Scale, v float64) { sc.DESFailMTBF = v }},
	}
	for _, c := range delays {
		for _, tc := range []struct {
			v  float64
			ok bool
		}{
			{0, true}, {2.5, true}, {math.MaxFloat64, true},
			{-1, false}, {-math.SmallestNonzeroFloat64, false}, {nan, false}, {inf, false}, {-inf, false},
		} {
			sc := SmokeScale
			c.set(&sc, tc.v)
			check(c.name, sc, tc.ok, tc.v)
		}
	}
}
