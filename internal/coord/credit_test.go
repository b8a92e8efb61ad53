package coord

// Tests for flow control on the result stream: the credit window bounds
// the frames queued toward the coordinator, a worker starved of credit
// gives its lease up after one TTL, and a stream that lost a record stops
// sending.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// inflightNet is an in-memory network that, like TCPNetwork, takes result
// buffers back through Recycle, and counts the result frames sent to the
// coordinator that it has not had back yet, and the claims.
type inflightNet struct {
	*p2p.InMemoryNetwork
	coord                  string
	mu                     sync.Mutex
	inflight, peak, claims int
}

func (n *inflightNet) Send(env p2p.Envelope) error {
	result := env.To == n.coord && env.Msg.ID == mtResult
	n.mu.Lock()
	if result {
		n.inflight++
		n.peak = max(n.peak, n.inflight)
	} else if m, ok := decodeWire(env); ok && m.Type == mtClaim {
		n.claims++
	}
	n.mu.Unlock()
	err := n.InMemoryNetwork.Send(env)
	if err != nil && result {
		n.mu.Lock()
		n.inflight--
		n.mu.Unlock()
	}
	return err
}

func (n *inflightNet) Recycle([]byte) {
	n.mu.Lock()
	n.inflight--
	n.mu.Unlock()
}

// TestCreditWindowBoundsInflightResults runs a small fig7 on two real
// workers: however far the workers run ahead of the coordinator's journal,
// at most 2 × creditWindow result frames are ever sent and not yet handed
// back, and the reduced CSVs equal a local run's. Acks never reach a
// worker's claim loop, which would answer each with a claim: about one
// claim per record.
func TestCreditWindowBoundsInflightResults(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 200, Realizations: 4, Sources: 8, MaxTTLFlood: 5, MaxTTLNF: 2}
	const specID, seed = "fig7", uint64(2007)
	want := runLocalBaseline(t, specID, sc, seed)

	net := &inflightNet{InMemoryNetwork: p2p.NewInMemoryNetwork(), coord: "coord"}
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, err := sim.OpenJournal(filepath.Join(t.TempDir(), specID+".journal"), specID, seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w1 := startWorkerOn(net, srv.Addr(), "w1", 0)
	w2 := startWorkerOn(net, srv.Addr(), "w2", 0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := srv.RunJob(ctx, JobConfig{Spec: specID, Seed: seed, Scale: sc, LeaseTTL: 10 * time.Second}, j)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	stopWorkers(t, srv, w1, w2)
	if st.Done != sc.Realizations || st.Rejected+st.GivenUp+st.BadRecords != 0 {
		t.Fatalf("job stats %+v, want every realization done cleanly", st)
	}
	net.mu.Lock()
	peak, claims := net.peak, net.claims
	net.mu.Unlock()
	if peak > 2*creditWindow {
		t.Errorf("%d result frames in flight at once, want at most 2 workers × %d", peak, creditWindow)
	}
	if claims > int(st.Accepted)/2 {
		t.Errorf("%d claims for %d leases and %d records: acks were answered with claims", claims, st.LeasesIssued, st.Accepted)
	}
	if got := reduceFromJournal(t, specID, sc, seed, j); !bytes.Equal(want, got) {
		t.Errorf("distributed %s differs from local run (%d vs %d bytes)", specID, len(got), len(want))
	}
}

// scriptedCoord is a coordinator endpoint a test drives by hand.
type scriptedCoord struct {
	t       *testing.T
	inbox   chan p2p.Envelope
	results int // result frames received
}

func newScriptedCoord(t *testing.T, net p2p.Network) *scriptedCoord {
	t.Helper()
	c := &scriptedCoord{t: t, inbox: make(chan p2p.Envelope, 4096)}
	if err := net.Register("coord", c.inbox); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Unregister("coord") })
	return c
}

// next returns the next message of one of the given types, counting the
// results it passes over.
func (c *scriptedCoord) next(types ...string) wireMsg {
	c.t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case env := <-c.inbox:
			m, ok := decodeWire(env)
			if !ok {
				continue
			}
			if m.Type == mtResult {
				c.results++
			}
			for _, typ := range types {
				if m.Type == typ {
					return m
				}
			}
		case <-timeout:
			c.t.Fatalf("no %v from the worker", types)
			return wireMsg{}
		}
	}
}

// TestCreditStarvedLeaseFails grants a real worker a fig7 lease and never
// acks a frame: the worker sends one window of results, waits one lease
// TTL for credit, then reports the lease failed without sending more, and
// counts one wait and one timeout.
func TestCreditStarvedLeaseFails(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 200, Realizations: 1, Sources: 8, MaxTTLFlood: 5, MaxTTLNF: 2}
	net := p2p.NewInMemoryNetwork()
	c := newScriptedCoord(t, net)
	w := startWorkerOn(net, "coord", "w", 0)

	claim := c.next(mtClaim)
	wire := sc.WorkloadOnly()
	const window, ttl = 2, 300 * time.Millisecond
	granted := time.Now()
	if err := sendWire(net, "coord", claim.Worker, wireMsg{
		Type: mtLease, Spec: "fig7", Seed: 5, Scale: &wire,
		Fingerprint: leaseFingerprint("fig7", 5, wire), Realization: 0, Lease: 1,
		TTLMillis: ttl.Milliseconds(), HBMillis: 50, Window: window,
	}); err != nil {
		t.Fatal(err)
	}
	fail := c.next(mtFail, mtComplete)
	if fail.Type != mtFail || fail.Lease != 1 {
		t.Fatalf("starved lease ended with %+v, want a fail", fail)
	}
	if waited := time.Since(granted); waited < ttl {
		t.Errorf("worker gave up after %s, before the lease TTL %s", waited, ttl)
	}
	if c.results != window {
		t.Errorf("worker sent %d results with no ack, want the window of %d", c.results, window)
	}
	if err := sendWire(net, "coord", claim.Worker, wireMsg{Type: mtShutdown}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on shutdown")
	}
	if w.err != nil || w.stats.CreditWaits != 1 || w.stats.CreditTimeouts != 1 || w.stats.Failures != 1 {
		t.Errorf("worker = %+v, %v; want one credit wait, one timeout, one failure", w.stats, w.err)
	}
}

// failNthResult fails the k-th result frame sent through it, and counts
// the result sends attempted.
type failNthResult struct {
	p2p.Network
	k        int
	mu       sync.Mutex
	attempts int
}

func (n *failNthResult) Send(env p2p.Envelope) error {
	if env.Msg.ID == mtResult {
		n.mu.Lock()
		n.attempts++
		a := n.attempts
		n.mu.Unlock()
		if a == n.k {
			return errors.New("injected send failure")
		}
	}
	return n.Network.Send(env)
}

// TestWorkerStopsStreamingAfterFailedSend: once one record of a lease is
// lost, the worker sends no further record of that lease — each later send
// would pay the transport's retries for a lease already lost — and reports
// the lease failed once.
func TestWorkerStopsStreamingAfterFailedSend(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 200, Realizations: 1, Sources: 8, MaxTTLFlood: 5, MaxTTLNF: 2}
	inner := p2p.NewInMemoryNetwork()
	srv, err := NewServer(inner, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j := openTestJournal(t, filepath.Join(t.TempDir(), "fig7.journal"), "fig7", 5, sc, false)
	defer j.Close()

	const k = 3
	wnet := &failNthResult{Network: inner, k: k}
	w := startWorkerOn(wnet, srv.Addr(), "w", 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := srv.RunJob(ctx, JobConfig{Spec: "fig7", Seed: 5, Scale: sc, LeaseTTL: 10 * time.Second, WorkerRetries: 0}, j)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	stopWorkers(t, srv, w)
	if st.WorkerFails != 1 || st.GivenUp != 1 || st.Accepted != k-1 {
		t.Errorf("job stats %+v, want one fail, the realization given up, %d records accepted", st, k-1)
	}
	wnet.mu.Lock()
	attempts := wnet.attempts
	wnet.mu.Unlock()
	if attempts != k {
		t.Errorf("worker attempted %d result sends, want %d: it kept streaming after the failed one", attempts, k)
	}
	if w.stats.Failures != 1 || w.stats.Completions != 0 || w.stats.Records != k-1 {
		t.Errorf("worker stats %+v, want one failure, no completion, %d records", w.stats, k-1)
	}
}

// nextAck reads the fake worker's next message, which must be an ack.
func (w *fakeWorker) nextAck() wireMsg {
	w.t.Helper()
	select {
	case env := <-w.inbox:
		m, ok := decodeWire(env)
		if !ok || m.Type != mtAck {
			w.t.Fatalf("%s: got %+v, want an ack", w.addr, m)
		}
		return m
	case <-time.After(10 * time.Second):
		w.t.Fatalf("%s: no ack", w.addr)
		return wireMsg{}
	}
}

// TestCreditAcksCountHandledFrames pins what an ack says: the count of the
// worker's frames for the realization handled since its lease, duplicates
// included; a bad frame or another spec's frame earns no ack and no count;
// and a new lease of the same realization to the same worker starts the
// count again.
func TestCreditAcksCountHandledFrames(t *testing.T) {
	t.Parallel()
	net := p2p.NewInMemoryNetwork()
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc := sim.Scale{Realizations: 1}
	j := openTestJournal(t, filepath.Join(t.TempDir(), "job.journal"), "job", 19, sc, false)
	defer j.Close()
	res := startJob(context.Background(), srv, JobConfig{Spec: "job", Seed: 19, Scale: sc, LeaseTTL: time.Minute, WorkerRetries: 1}, j)

	w := newFakeWorker(t, net, "w", srv.Addr())
	l1 := w.claimLease(5 * time.Second)
	if l1.Window != creditWindow {
		t.Fatalf("lease carries window %d, want %d", l1.Window, creditWindow)
	}
	wantAck := func(n int) {
		t.Helper()
		if a := w.nextAck(); a.Spec != "job" || a.Realization != 0 || a.Records != n {
			t.Fatalf("ack %+v, want %d frames of r=0 handled", a, n)
		}
	}
	rec1 := testRecord(0, 1).MarshalBinary()
	w.send(wireMsg{Type: mtResult, Spec: "job", Record: rec1})
	wantAck(1)
	w.send(wireMsg{Type: mtResult, Spec: "job", Record: rec1})
	wantAck(2)
	w.send(wireMsg{Type: mtResult, Spec: "job", Record: []byte{1, 2, 3}})
	w.send(wireMsg{Type: mtResult, Spec: "other", Record: testRecord(0, 9).MarshalBinary()})
	w.send(wireMsg{Type: mtResult, Spec: "job", Record: testRecord(0, 2).MarshalBinary()})
	wantAck(3)

	w.send(wireMsg{Type: mtFail, Spec: "job", Realization: 0, Lease: l1.Lease, Err: "test"})
	l2 := w.claimLease(5 * time.Second)
	if l2.Realization != 0 || l2.Lease == l1.Lease {
		t.Fatalf("re-lease %+v, want a new lease of r=0", l2)
	}
	w.send(wireMsg{Type: mtResult, Spec: "job", Record: testRecord(0, 3).MarshalBinary()})
	wantAck(1)
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: l2.Lease, Records: 3})
	if r := waitJob(t, res); r.err != nil || r.st.Done != 1 || r.st.Accepted != 3 || r.st.DupRecords != 1 || r.st.BadRecords != 1 {
		t.Fatalf("RunJob = %+v, %v; want r=0 done with 3 accepted, 1 duplicate, 1 bad", r.st, r.err)
	}
}
