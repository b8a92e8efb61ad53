package sim

// Machine-checkable paper claims. Each Claim re-runs a reduced version of
// the relevant experiment and asserts the paper's qualitative conclusion
// (an ordering, a bound, a monotone trend). They power both the findings
// regression tests and `cmd/experiments -verify`, so a reader can confirm
// the reproduction end-to-end with one command.

import (
	"fmt"

	"scalefree/internal/gen"
)

// ClaimResult is the outcome of checking one paper claim.
type ClaimResult struct {
	// ID is a short stable identifier ("nf-cutoff-gain").
	ID string
	// Statement quotes or paraphrases the paper.
	Statement string
	// Pass reports whether the measured data supports the claim.
	Pass bool
	// Detail holds the measured numbers behind the verdict.
	Detail string
	// Deviation, copied from the claim, marks a documented fidelity
	// deviation: the measurement still runs and reports, but a false
	// Pass is the expected outcome, not a verification failure.
	Deviation string
	// Err is set when the experiment itself failed to run.
	Err error
}

// Claim is a checkable paper statement.
type Claim struct {
	ID        string
	Statement string
	Check     func(sc Scale, seed uint64) (pass bool, detail string, err error)
	// Deviation, when non-empty, documents that this reproduction
	// measurably does not support the paper's conclusion (a fidelity
	// deviation, like the CM stub-pairing note on gen.CM). The check
	// still runs so the measured ordering stays on record, but callers
	// must not gate on Pass.
	Deviation string
}

// Claims returns the paper's headline conclusions as checkable claims, in
// paper order.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "nf-cutoff-gain",
			Statement: "Hard cutoffs may improve search efficiency in NF (§V-B1, Fig. 9)",
			Check:     checkNFCutoffGain,
		},
		{
			ID:        "cm-exception",
			Statement: "The only exception to this behavior is the CM (§V-B1, Figs. 9b/11b)",
			Check:     checkCMException,
		},
		{
			ID:        "m3-erases-fl-penalty",
			Statement: "A minimum of three links for all peers eliminates negative effects of hard cutoffs on FL (§V-B1, Fig. 6)",
			Check:     checkM3ErasesFLPenalty,
		},
		{
			ID:        "weak-dapa-cutoff-helps-fl",
			Statement: "With weak connectedness (m=1), imposing hard cutoffs improves FL on DAPA (§V-B1, Fig. 8a)",
			Check:     checkWeakDAPACutoffHelpsFL,
			// Measured repeatedly (multiple seeds, 9 realizations × 24
			// sources, smoke and paper-size overlays): this reproduction
			// shows the OPPOSITE ordering, or a tie, in every averaged
			// run — at N_O=10⁴/τ_sub∈{2,4} the no-cutoff overlay covers
			// ~10-20% more peers at equal τ. Structural explanation: a
			// DAPA m=1 overlay is a connected tree by construction
			// (Appendix D admits a peer iff it linked to ≥1 horizon
			// peer), so FL saturates at 100% either way and the cutoff
			// only deepens the tree, slowing coverage. Earlier revisions
			// "passed" this check on single-seed noise; the pipelined
			// engine's stream re-derivation exposed the coin flip.
			Deviation: "not reproduced: measured FL ordering favors no-cutoff m=1 DAPA overlays at every tested scale",
		},
		{
			ID:        "exponent-monotone-in-cutoff",
			Statement: "The degree distribution exponent degrades to lower values when harder cutoffs are applied (§III-B, Fig. 1c)",
			Check:     checkExponentMonotone,
		},
		{
			ID:        "nf-beats-rw",
			Statement: "In all cases, NF performs better than RW consistently (§V-B2)",
			Check:     checkNFBeatsRW,
		},
	}
}

// checkClaimList evaluates claims in order, deriving each claim's seed
// from its position as the verifier always has.
func checkClaimList(claims []Claim, sc Scale, seed uint64) []ClaimResult {
	out := make([]ClaimResult, len(claims))
	for i, c := range claims {
		pass, detail, err := c.Check(sc, seed+uint64(i)*7717)
		out[i] = ClaimResult{ID: c.ID, Statement: c.Statement, Pass: pass && err == nil, Detail: detail, Deviation: c.Deviation, Err: err}
	}
	return out
}

func lastY(s Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Y
}

func checkNFCutoffGain(sc Scale, seed uint64) (bool, string, error) {
	s, err := searchBatch(sc, searchRun{"kc=10", "", paTopo(sc.NSearch, 2, 10), algNF, sc.MaxTTLNF, 2, seed},
		searchRun{"kc=200", "", paTopo(sc.NSearch, 2, 200), algNF, sc.MaxTTLNF, 2, seed + 1})
	if err != nil {
		return false, "", err
	}
	a, b := lastY(s[0]), lastY(s[1])
	return a > b, fmt.Sprintf("NF hits on PA m=2: kc=10 %.1f vs kc=200 %.1f", a, b), nil
}

func checkCMException(sc Scale, seed uint64) (bool, string, error) {
	s, err := searchBatch(sc, searchRun{"kc=10", "", cmTopo(sc.NSearch, 1, 10, 2.2), algNF, sc.MaxTTLNF, 1, seed},
		searchRun{"no kc", "", cmTopo(sc.NSearch, 1, gen.NoCutoff, 2.2), algNF, sc.MaxTTLNF, 1, seed + 1})
	if err != nil {
		return false, "", err
	}
	a, b := lastY(s[0]), lastY(s[1])
	return a < b, fmt.Sprintf("NF hits on CM gamma=2.2 m=1: kc=10 %.2f vs no kc %.2f", a, b), nil
}

func checkM3ErasesFLPenalty(sc Scale, seed uint64) (bool, string, error) {
	// A kc=10 and a no-cutoff series for m = 1, then m = 3.
	var runs []searchRun
	for i, m := range []int{1, 3} {
		s := seed + uint64(i)*100
		runs = append(runs, searchRun{"kc", "", paTopo(sc.NSearch, m, 10), algFL, 6, 0, s},
			searchRun{"no", "", paTopo(sc.NSearch, m, gen.NoCutoff), algFL, 6, 0, s + 1})
	}
	s, err := searchBatch(sc, runs...)
	if err != nil {
		return false, "", err
	}
	gap := func(tight, loose Series) float64 { return (lastY(loose) - lastY(tight)) / lastY(loose) }
	g1, g3 := gap(s[0], s[1]), gap(s[2], s[3])
	return g3 < g1/4 && g3 < 0.1,
		fmt.Sprintf("relative FL penalty of kc=10: m=1 %.0f%%, m=3 %.1f%%", 100*g1, 100*g3), nil
}

func checkWeakDAPACutoffHelpsFL(sc Scale, seed uint64) (bool, string, error) {
	subs, err := makeSubstrates(sc.NSubstrate, sc, seed)
	if err != nil {
		return false, "", err
	}
	// This check records a documented deviation (see the claim entry), so
	// the measurement must be real, not one seed's draw: average over
	// extra overlays per substrate (dapaTopo cycles r over the substrate
	// pool) and extra sources. With this averaging the no-cutoff overlays
	// win or tie at every tested seed and scale.
	wide := sc
	wide.Realizations *= 3
	wide.Sources *= 2
	s, err := searchBatch(wide, searchRun{"kc=10", "", dapaTopo(subs, sc.NOverlay, 1, 10, 4), algFL, 20, 0, seed + 1},
		searchRun{"no kc", "", dapaTopo(subs, sc.NOverlay, 1, gen.NoCutoff, 4), algFL, 20, 0, seed + 2})
	if err != nil {
		return false, "", err
	}
	a, b := lastY(s[0]), lastY(s[1])
	return a > b, fmt.Sprintf("FL hits on DAPA m=1 tau=4: kc=10 %.0f vs no kc %.0f", a, b), nil
}

func checkExponentMonotone(sc Scale, seed uint64) (bool, string, error) {
	figs, err := Fig1c(sc, seed)
	if err != nil {
		return false, "", err
	}
	detail := ""
	pass := true
	for _, s := range figs[0].Series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		detail += fmt.Sprintf("%s: gamma %.2f@kc=%.0f -> %.2f@kc=%.0f; ", s.Label, first.Y, first.X, last.Y, last.X)
		if first.Y >= last.Y {
			pass = false
		}
	}
	return pass, detail, nil
}

func checkNFBeatsRW(sc Scale, seed uint64) (bool, string, error) {
	means, err := realizationBatch(sc, nfRWBuild(sc, seed, "nf-beats-rw", paTopo(sc.NSearch, 2, 40), 2))
	if err != nil {
		return false, "", err
	}
	nf, err := aggregate("nf", blockRow(means[0][0], 1), 1)
	if err != nil {
		return false, "", err
	}
	rw, err := aggregate("rw", blockRow(means[0][0], 2), 1)
	if err != nil {
		return false, "", err
	}
	a, b := lastY(nf), lastY(rw)
	return b <= a*1.1, fmt.Sprintf("hits at equal budget: NF %.0f vs RW %.0f", a, b), nil
}
