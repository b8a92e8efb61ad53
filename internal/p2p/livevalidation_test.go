package p2p

// Live-vs-static validation: the live query protocols and the static
// simulator (internal/search) implement the same algorithms; running both
// on the same topology must agree. This is the strongest correctness check
// in the repository — two independent implementations cross-validated.

import (
	"fmt"
	"testing"
	"time"

	"scalefree/internal/search"
)

func TestLiveFloodMatchesStaticFlood(t *testing.T) {
	t.Parallel()
	// Grow a live overlay, snapshot it, and compare: a live FL query's
	// hit count for a universal key must equal the static flood's
	// coverage (minus the origin) at the same TTL.
	o := newTestOverlay(t, OverlayConfig{M: 2, KC: 15, TauSub: 4, Strategy: JoinDAPA, Seed: 171})
	const n = 40
	if err := o.Grow(n, func(i int) []string { return []string{"everywhere"} }); err != nil {
		t.Fatal(err)
	}
	g, id := o.Snapshot()

	for _, ttl := range []int{2, 4, 6} {
		srcAddr := o.Addrs()[0]
		src := o.Peer(srcAddr)
		static, err := new(search.Scratch).Flood(g.Freeze(), id[srcAddr], ttl)
		if err != nil {
			t.Fatal(err)
		}
		wantHits := static.HitsAt(ttl) - 1 // origin doesn't self-report
		// The live query collects hits for a fixed window; on a saturated
		// machine a reply can arrive late, so retry the (idempotent) query
		// a few times before declaring a mismatch.
		got := -1
		for attempt := 0; attempt < 5; attempt++ {
			res, err := src.Query("everywhere", AlgFlood, ttl)
			if err != nil {
				t.Fatal(err)
			}
			got = len(res.Hits)
			if got == wantHits {
				break
			}
		}
		if got != wantHits {
			t.Fatalf("ttl=%d: live flood hit %d peers, static says %d",
				ttl, got, wantHits)
		}
	}
}

func TestLiveNFWithinStaticEnvelope(t *testing.T) {
	t.Parallel()
	// NF is randomized, so live and static runs differ draw to draw; but
	// live NF coverage must sit inside [1, static FL coverage] and scale
	// with TTL.
	o := newTestOverlay(t, OverlayConfig{M: 2, KC: 15, TauSub: 4, Strategy: JoinDAPA, Seed: 173})
	if err := o.Grow(40, func(i int) []string { return []string{"everywhere"} }); err != nil {
		t.Fatal(err)
	}
	g, id := o.Snapshot()
	srcAddr := o.Addrs()[0]
	src := o.Peer(srcAddr)

	const ttl = 5
	res, err := src.Query("everywhere", AlgNF, ttl)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := new(search.Scratch).Flood(g.Freeze(), id[srcAddr], ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) < 1 || len(res.Hits) > fl.HitsAt(ttl)-1 {
		t.Fatalf("live NF hits %d outside [1, %d]", len(res.Hits), fl.HitsAt(ttl)-1)
	}
}

func TestLiveRWHitCountBounded(t *testing.T) {
	t.Parallel()
	// A live walker with TTL t visits at most t peers beyond the origin.
	o := newTestOverlay(t, OverlayConfig{M: 2, TauSub: 4, Strategy: JoinDAPA, Seed: 177})
	if err := o.Grow(30, func(i int) []string { return []string{"everywhere"} }); err != nil {
		t.Fatal(err)
	}
	src := o.Peer(o.Addrs()[0])
	const ttl = 8
	res, err := src.Query("everywhere", AlgRW, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) > ttl {
		t.Fatalf("walker with ttl=%d reported %d hits", ttl, len(res.Hits))
	}
	if len(res.Hits) == 0 {
		t.Fatal("walker found nothing on a fully stocked overlay")
	}
}

func TestLiveMessagingCountsMatchProtocol(t *testing.T) {
	t.Parallel()
	// On a star overlay, a FL query from the hub sends exactly deg
	// messages; from a leaf, 1 + (deg-1).
	netw := NewInMemoryNetwork()
	hub := spawn(t, netw, testConfig("hub", 1))
	leaves := make([]*Peer, 4)
	for i := range leaves {
		leaves[i] = spawn(t, netw, testConfig(fmt.Sprintf("l%d", i), uint64(i+2)))
		if err := leaves[i].Connect("hub"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return hub.Degree() == 4 })

	if _, err := hub.Query("none", AlgFlood, 3); err != nil {
		t.Fatal(err)
	}
	if fwd := hub.Stats().QueriesForwarded; fwd != 4 {
		t.Fatalf("hub forwarded %d, want 4", fwd)
	}
	if _, err := leaves[0].Query("none", AlgFlood, 3); err != nil {
		t.Fatal(err)
	}
	// Leaf sends 1; after the hub processes, it forwards deg-1 = 3.
	if fwd := leaves[0].Stats().QueriesForwarded; fwd != 1 {
		t.Fatalf("leaf forwarded %d, want 1", fwd)
	}
	if !waitFor(t, time.Second, func() bool { return hub.Stats().QueriesForwarded == 4+3 }) {
		t.Fatalf("hub forwarded %d total, want 7", hub.Stats().QueriesForwarded)
	}
}
