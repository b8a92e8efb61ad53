package sim

// Churn is the extension experiment for the paper's §VI future work:
// join/leave dynamics while maintaining scale-freeness under a hard
// cutoff. It runs the internal/churn simulator with balanced churn
// (pJoin=0.5) on a kc-capped overlay and compares the reconnect-repair
// policy (the paper's "minimum of 2-3 links" guideline enforced
// continuously) against no repair, tracking giant-component survival and
// NF search efficiency over time, with the maintenance messaging cost per
// event recorded in the figure notes.

import (
	"fmt"

	"scalefree/internal/churn"
)

// Churn measures overlay health vs churn events with and without repair.
func Churn(sc Scale, seed uint64) ([]Figure, error) {
	const (
		m     = 2
		kc    = 10
		pJoin = 0.5
		ttl   = 4
	)
	events := 2 * sc.NSearch
	probeEvery := events / 8
	policies := []churn.RepairPolicy{churn.ReconnectRepair, churn.NoRepair}

	giant := Figure{
		ID:     "churn-giant",
		Title:  fmt.Sprintf("Giant component under balanced churn (PA, m=%d, kc=%d, pJoin=%.1f)", m, kc, pJoin),
		XLabel: "churn events", YLabel: "giant component fraction",
	}
	hits := Figure{
		ID:     "churn-nfhits",
		Title:  fmt.Sprintf("NF search efficiency under balanced churn (tau=%d)", ttl),
		XLabel: "churn events", YLabel: "NF hits",
	}
	// A realization's block is its probe trace, one row per column: event
	// count, giant fraction, NF hits, messages per event.
	builds := make([]blockBuild[[][]float64, [][]float64, [][]float64], len(policies))
	for pi, policy := range policies {
		tag := "churn " + policy.String()
		builds[pi] = shared(tag, seed+uint64(pi)*2713, func(r int, b *builder) ([][]float64, error) {
			// The churn trace is one long event sequence; it draws from the
			// realization's legacy stream, sequential by nature.
			sim, err := churn.New(churn.Config{
				InitialN: sc.NSearch,
				M:        m,
				KC:       kc,
				Join:     churn.JoinPreferential,
				Repair:   policy,
				Graceful: true,
			}, b.rng)
			if err != nil {
				return nil, err
			}
			trace, err := sim.Run(events, pJoin, probeEvery, sc.Sources, ttl)
			if err != nil {
				return nil, err
			}
			cols := make([][]float64, 4)
			for c := range cols {
				cols[c] = make([]float64, len(trace))
			}
			for i, snap := range trace {
				cols[0][i], cols[1][i], cols[2][i], cols[3][i] = float64(snap.Event), snap.GiantFrac, snap.NFHits, snap.MessagesPerEvent
			}
			return cols, nil
		}, journaled[[][]float64](tag, rowBlocks(recSweepSlots, 4, -1), nil))
	}
	traces, err := realizationBatch(sc, builds...)
	if err != nil {
		return nil, err
	}
	var msgNotes string
	for pi, policy := range policies {
		// Every realization probes at the same events: row 0 is the x axis.
		blocks := traces[pi][0]
		xs := firstRow(blockRow(blocks, 0))
		gs, err := aggregate(policy.String(), blockRow(blocks, 1), 0)
		if err != nil {
			return nil, err
		}
		hs, err := aggregate(policy.String(), blockRow(blocks, 2), 0)
		if err != nil {
			return nil, err
		}
		msgs, err := aggregate(policy.String(), blockRow(blocks, 3), 0)
		if err != nil {
			return nil, err
		}
		giant.Series = append(giant.Series, gs.withX(xs))
		hits.Series = append(hits.Series, hs.withX(xs))
		if msgNotes != "" {
			msgNotes += "; "
		}
		msgNotes += fmt.Sprintf("%s: %.1f msgs/event", policy, msgs.Points[len(xs)-1].Y)
	}
	giant.Notes = "maintenance cost — " + msgNotes
	hits.Notes = giant.Notes
	return []Figure{giant, hits}, nil
}
