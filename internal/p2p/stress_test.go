package p2p

// Stress and failure-injection tests: concurrent joins, inbox overrun,
// malformed TCP frames, and mid-protocol crashes. These exercise the
// "potentially uncooperative environment" the paper designs for.

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestConcurrentJoins(t *testing.T) {
	t.Parallel()
	// Many peers joining simultaneously through the same bootstrap: the
	// overlay must stay consistent (no degree-cutoff violations, no
	// one-sided links beyond transient ones, no deadlocks).
	netw := NewInMemoryNetwork()
	spawn(t, netw, testConfig("boot", 1))
	const joiners = 60
	peers := make([]*Peer, joiners)
	for i := range peers {
		cfg := testConfig(fmt.Sprintf("j%d", i), uint64(i+2))
		cfg.KC = 12
		peers[i] = spawn(t, netw, cfg)
	}
	var wg sync.WaitGroup
	errs := make([]error, joiners)
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			_, errs[i] = p.Join("boot", JoinDAPA)
		}(i, p)
	}
	wg.Wait()
	joined := 0
	for i, err := range errs {
		if err == nil {
			joined++
		} else {
			t.Logf("joiner %d: %v", i, err)
		}
	}
	// The bootstrap saturates at kc=0 (unset => NoCutoff in testConfig)…
	// boot has no cutoff, so most joins must succeed.
	if joined < joiners*8/10 {
		t.Fatalf("only %d/%d concurrent joins succeeded", joined, joiners)
	}
	// Cutoffs hold for every joiner despite concurrency.
	for i, p := range peers {
		if d := p.Degree(); d > 12 {
			t.Fatalf("joiner %d degree %d > kc=12", i, d)
		}
	}
}

func TestConcurrentQueriesWhileChurning(t *testing.T) {
	t.Parallel()
	o := newTestOverlay(t, OverlayConfig{M: 2, KC: 15, TauSub: 4, Strategy: JoinDAPA, Seed: 77})
	if err := o.Grow(40, func(i int) []string { return []string{fmt.Sprintf("k%d", i)} }); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addrs := o.Addrs()
			o.Remove(addrs[len(addrs)-1], i%2 == 0)
			if _, err := o.SpawnJoin(); err != nil {
				// Bootstrap may have just died; tolerated.
				continue
			}
		}
	}()
	// Queries run concurrently with churn; they may miss, but must not
	// deadlock, race, or error.
	var queryWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		queryWG.Add(1)
		go func(w int) {
			defer queryWG.Done()
			for i := 0; i < 10; i++ {
				addrs := o.Addrs()
				if len(addrs) == 0 {
					continue
				}
				p := o.Peer(addrs[w%len(addrs)])
				if p == nil {
					continue
				}
				if _, err := p.Query(fmt.Sprintf("k%d", i), AlgFlood, 5); err != nil && err != ErrPeerClosed {
					t.Errorf("query error: %v", err)
				}
			}
		}(w)
	}
	queryWG.Wait()
	close(stop)
	churnWG.Wait()
}

func TestInboxOverrunCountsDrops(t *testing.T) {
	t.Parallel()
	netw := NewInMemoryNetwork()
	cfg := testConfig("tiny", 1)
	cfg.InboxSize = 1 // pathological mailbox
	tiny := spawn(t, netw, cfg)
	big := spawn(t, netw, testConfig("big", 2))
	if err := big.Connect("tiny"); err != nil {
		t.Fatal(err)
	}
	// Saturate: fire many discovers at the tiny peer; some must drop
	// without wedging either peer.
	for i := 0; i < 200; i++ {
		_, _ = big.Discover("tiny", 1)
	}
	if tiny.Degree() != 1 {
		t.Fatalf("tiny peer lost its link under overrun: degree %d", tiny.Degree())
	}
	// The sender observed drops (send failures count on the sender).
	if st := big.Stats(); st.Dropped == 0 {
		t.Log("no drops recorded — inbox drained fast enough; acceptable but unusual")
	}
}

// TestTCPMalformedFramesIgnored pins what bytes that are not a frame of this
// protocol cost: their own connection. Whatever a stranger writes — noise, a
// newline-delimited JSON envelope from a peer built before the binary
// framing, a well-framed header that is not an envelope — the receiver hangs
// up, counts it, and delivers nothing from that connection, not even a valid
// frame queued behind the bad one; the endpoint itself is unharmed and the
// next connection's frame arrives.
func TestTCPMalformedFramesIgnored(t *testing.T) {
	t.Parallel()
	tnet := NewTCPNetwork()
	t.Cleanup(tnet.Close)
	inbox := make(chan Envelope, 16)
	if err := tnet.Register("127.0.0.1:0", inbox); err != nil {
		t.Fatal(err)
	}
	addr := tnet.ListenAddr("127.0.0.1:0")
	valid := wireFrame(t, Envelope{From: "x", To: addr, Msg: Message{Kind: KindPing, ID: "1"}})
	noHeader := append([]byte(nil), valid[:framePrefix]...)
	binary.LittleEndian.PutUint32(noHeader[len(frameMagic):], 0)
	notJSON := append([]byte(nil), valid...)
	notJSON[framePrefix] = '<'

	for i, c := range []struct {
		name  string
		bytes []byte
	}{
		{"noise", []byte("this is not json\n{\"also\":\n")},
		{"old newline JSON", []byte(`{"from":"x","to":"` + addr + `","msg":{"kind":"ping","id":"1"}}` + "\n")},
		{"wrong version", append([]byte("SFP\x01"), valid[len(frameMagic):]...)},
		{"empty header", noHeader},
		{"header not an envelope", notJSON},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(c.bytes, valid...)); err != nil {
			t.Fatal(err)
		}
		expectHangup(t, conn, c.name)
		_ = conn.Close()
		if st := tnet.Stats(); st.BadFrames != int64(i+1) {
			t.Fatalf("%s: BadFrames = %d, want %d", c.name, st.BadFrames, i+1)
		}
		select {
		case env := <-inbox:
			t.Fatalf("%s: delivered %+v from a refused connection", c.name, env)
		default:
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(valid); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		if env.Msg.Kind != KindPing {
			t.Fatalf("got %v", env.Msg.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid frame after the refused connections never arrived")
	}
}

func TestQueryAgainstCrashedNeighbor(t *testing.T) {
	t.Parallel()
	netw := NewInMemoryNetwork()
	a := spawn(t, netw, testConfig("a", 1))
	b, err := NewPeer(testConfig("b", 2), netw)
	if err != nil {
		t.Fatal(err)
	}
	c := spawn(t, netw, testConfig("c", 3))
	c.AddKey("beyond")
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect("c"); err != nil {
		t.Fatal(err)
	}
	b.Close() // crash: a still lists b
	// Query through the dead peer: no hits, but no error or hang.
	res, err := a.Query("beyond", AlgFlood, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("hits through a dead peer: %v", res.Hits)
	}
	// PruneDead clears the corpse.
	if removed := a.PruneDead(); removed != 1 {
		t.Fatalf("PruneDead removed %d, want 1", removed)
	}
	if a.Degree() != 0 {
		t.Fatalf("degree %d after prune", a.Degree())
	}
}

func TestPruneDeadKeepsLiveNeighbors(t *testing.T) {
	t.Parallel()
	netw := NewInMemoryNetwork()
	a := spawn(t, netw, testConfig("a", 1))
	live := spawn(t, netw, testConfig("live", 2))
	dead, err := NewPeer(testConfig("dead", 3), netw)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("live"); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("dead"); err != nil {
		t.Fatal(err)
	}
	dead.Close()
	if removed := a.PruneDead(); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	nbs := a.Neighbors()
	if len(nbs) != 1 || nbs[0].Addr != "live" {
		t.Fatalf("neighbors after prune: %v", nbs)
	}
	_ = live
}
