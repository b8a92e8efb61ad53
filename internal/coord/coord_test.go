package coord

// White-box lease-lifecycle tests: hand-rolled fake workers drive the
// coordinator's protocol edges that the chaos tests only hit
// probabilistically — expiry → reissue → late-duplicate dedup, heartbeat
// renewal racing expiry, completion verification rejecting short streams,
// and a coordinator restart replaying a torn journal tail. The server's
// single FIFO inbox makes every interleaving here deterministic: one test
// goroutine does all the sending, so processing order is send order.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// testRecord builds a valid slot record (kind 1 = sweep slots) with a
// distinct key per seq. The payload is opaque to the coordinator; these
// tests never reduce it.
func testRecord(r int, seq uint64) sim.SlotRecord {
	return sim.SlotRecord{Kind: 1, Stream: 0x1000 + seq, Sub: 0x2000 + seq, Realization: r, Payload: []byte{byte(r), byte(seq), 0xEE}}
}

type jobResult struct {
	st  Stats
	err error
}

// startJob runs srv.RunJob on its own goroutine and returns the channel
// its result lands on.
func startJob(ctx context.Context, srv *Server, cfg JobConfig, j *sim.Journal) chan jobResult {
	res := make(chan jobResult, 1)
	go func() {
		st, err := srv.RunJob(ctx, cfg, j)
		res <- jobResult{st, err}
	}()
	return res
}

func waitJob(t *testing.T, res chan jobResult) jobResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("RunJob did not return")
		return jobResult{}
	}
}

// fakeWorker is a scripted protocol peer: it sends exactly what a test
// tells it to and reads exactly one reply per claim.
type fakeWorker struct {
	t     *testing.T
	net   p2p.Network
	addr  string
	coord string
	inbox chan p2p.Envelope
}

func newFakeWorker(t *testing.T, net p2p.Network, addr, coord string) *fakeWorker {
	t.Helper()
	inbox := make(chan p2p.Envelope, 64)
	if err := net.Register(addr, inbox); err != nil {
		t.Fatalf("register %s: %v", addr, err)
	}
	t.Cleanup(func() { net.Unregister(addr) })
	return &fakeWorker{t: t, net: net, addr: addr, coord: coord, inbox: inbox}
}

func (w *fakeWorker) send(m wireMsg) {
	w.t.Helper()
	m.Worker = w.addr
	if err := sendWire(w.net, w.addr, w.coord, m); err != nil {
		w.t.Fatalf("%s: send %s: %v", w.addr, m.Type, err)
	}
}

// claim sends one claim and returns the lease or wait reply. Acks for
// results sent earlier are skipped: a scripted worker streams without
// waiting for credit.
func (w *fakeWorker) claim() wireMsg {
	w.t.Helper()
	w.send(wireMsg{Type: mtClaim})
	timeout := time.After(10 * time.Second)
	for {
		select {
		case env := <-w.inbox:
			m, ok := decodeWire(env)
			if !ok {
				w.t.Fatalf("%s: undecodable claim reply", w.addr)
			}
			if m.Type != mtAck {
				return m
			}
		case <-timeout:
			w.t.Fatalf("%s: no claim reply", w.addr)
			return wireMsg{}
		}
	}
}

// claimLease claims until granted a lease, riding out wait replies.
func (w *fakeWorker) claimLease(within time.Duration) wireMsg {
	w.t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if m := w.claim(); m.Type == mtLease {
			return m
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.t.Fatalf("%s: no lease within %s", w.addr, within)
	return wireMsg{}
}

func openTestJournal(t *testing.T, path, spec string, seed uint64, sc sim.Scale, resume bool) *sim.Journal {
	t.Helper()
	j, err := sim.OpenJournal(path, spec, seed, sc, resume)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return j
}

// TestLeaseExpiryReissueAndLateDuplicates walks the work-stealing path
// end to end: worker A claims r=0 and goes silent, its lease starves and
// is reissued to B, B completes the stolen realization, and A's late
// duplicate record and completion are deduped — first-writer-wins on the
// journal key, DupDone on the marker.
func TestLeaseExpiryReissueAndLateDuplicates(t *testing.T) {
	t.Parallel()
	net := p2p.NewInMemoryNetwork()
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc := sim.Scale{Realizations: 2}
	path := filepath.Join(t.TempDir(), "job.journal")
	j := openTestJournal(t, path, "job", 7, sc, false)
	cfg := JobConfig{Spec: "job", Seed: 7, Scale: sc, LeaseTTL: 300 * time.Millisecond, WorkerRetries: 5}
	res := startJob(context.Background(), srv, cfg, j)

	wA := newFakeWorker(t, net, "wA", srv.Addr())
	wB := newFakeWorker(t, net, "wB", srv.Addr())

	lA := wA.claimLease(5 * time.Second)
	if lA.Realization != 0 {
		t.Fatalf("first lease got r=%d, want 0", lA.Realization)
	}
	if lA.Spec != "job" || len(lA.Fingerprint) == 0 || lA.Scale == nil {
		t.Fatalf("lease missing workload: %+v", lA)
	}
	lB := wB.claimLease(5 * time.Second)
	if lB.Realization != 1 {
		t.Fatalf("second lease got r=%d, want 1", lB.Realization)
	}

	// A goes silent; B heartbeats r=1 so only r=0 starves.
	deadline := time.Now().Add(3 * cfg.LeaseTTL)
	for time.Now().Before(deadline) {
		time.Sleep(cfg.LeaseTTL / 3)
		wB.send(wireMsg{Type: mtHeartbeat, Spec: "job", Realization: 1, Lease: lB.Lease})
	}

	stolen := wB.claimLease(5 * time.Second)
	if stolen.Realization != 0 {
		t.Fatalf("stolen lease got r=%d, want 0", stolen.Realization)
	}
	if stolen.Lease == lA.Lease {
		t.Fatal("reissued lease reused the expired lease id")
	}

	// B completes the stolen realization.
	rec0 := testRecord(0, 1)
	wB.send(wireMsg{Type: mtResult, Spec: "job", Realization: 0, Lease: stolen.Lease, Record: rec0.MarshalBinary()})
	wB.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: stolen.Lease, Records: 1})

	// The stolen-from worker limps back: a duplicate record, a late
	// completion, a record for some other job, and a corrupt frame. All
	// must bounce off without perturbing the job.
	wA.send(wireMsg{Type: mtResult, Spec: "job", Realization: 0, Lease: lA.Lease, Record: rec0.MarshalBinary()})
	wA.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: lA.Lease, Records: 1})
	wA.send(wireMsg{Type: mtResult, Spec: "otherjob", Realization: 0, Lease: lA.Lease, Record: testRecord(0, 9).MarshalBinary()})
	wA.send(wireMsg{Type: mtResult, Spec: "job", Realization: 0, Lease: lA.Lease, Record: []byte{1, 2, 3}})

	// B finishes r=1 last so everything above is processed before the job
	// settles (FIFO inbox).
	rec1 := testRecord(1, 2)
	wB.send(wireMsg{Type: mtResult, Spec: "job", Realization: 1, Lease: lB.Lease, Record: rec1.MarshalBinary()})
	wB.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 1, Lease: lB.Lease, Records: 1})

	r := waitJob(t, res)
	if r.err != nil {
		t.Fatalf("RunJob: %v", r.err)
	}
	st := r.st
	if st.LeasesIssued != 3 || st.Expired != 1 || st.Reissued != 1 {
		t.Errorf("lease lifecycle: issued=%d expired=%d reissued=%d, want 3/1/1", st.LeasesIssued, st.Expired, st.Reissued)
	}
	if st.Accepted != 2 || st.DupRecords != 1 || st.BadRecords != 1 {
		t.Errorf("records: accepted=%d dup=%d bad=%d, want 2/1/1", st.Accepted, st.DupRecords, st.BadRecords)
	}
	if st.Completions != 2 || st.DupDone != 1 || st.Rejected != 0 || st.Done != 2 {
		t.Errorf("completions: done=%d dupDone=%d rejected=%d total=%d, want 2/1/0/2", st.Completions, st.DupDone, st.Rejected, st.Done)
	}

	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	info, err := sim.InspectJournal(path)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Spec != "job" || info.Seed != 7 {
		t.Errorf("journal identity: spec=%q seed=%d", info.Spec, info.Seed)
	}
	if len(info.Records) != 2 {
		t.Errorf("journal holds %d slot records, want 2", len(info.Records))
	}
	if !reflect.DeepEqual(info.Done, []int{0, 1}) {
		t.Errorf("journal done markers %v, want [0 1]", info.Done)
	}
	if info.TornBytes() != 0 {
		t.Errorf("journal has %d torn bytes, want 0", info.TornBytes())
	}
}

// TestHeartbeatRenewalBeatsExpiry pins that a worker heartbeating well
// inside the TTL holds its lease across several TTL windows — no expiry,
// no reissue — while a heartbeat carrying a superseded lease id is
// counted stale and does NOT renew.
func TestHeartbeatRenewalBeatsExpiry(t *testing.T) {
	t.Parallel()
	net := p2p.NewInMemoryNetwork()
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc := sim.Scale{Realizations: 1}
	path := filepath.Join(t.TempDir(), "job.journal")
	j := openTestJournal(t, path, "job", 11, sc, false)
	defer j.Close()
	cfg := JobConfig{Spec: "job", Seed: 11, Scale: sc, LeaseTTL: 600 * time.Millisecond}
	res := startJob(context.Background(), srv, cfg, j)

	w := newFakeWorker(t, net, "w", srv.Addr())
	l := w.claimLease(5 * time.Second)

	// Renew every TTL/12 for ~2.5 TTLs: the lease must never starve.
	for i := 0; i < 30; i++ {
		time.Sleep(cfg.LeaseTTL / 12)
		w.send(wireMsg{Type: mtHeartbeat, Spec: "job", Realization: l.Realization, Lease: l.Lease})
	}
	// A stale lease id renews nothing.
	w.send(wireMsg{Type: mtHeartbeat, Spec: "job", Realization: l.Realization, Lease: l.Lease + 999})

	rec := testRecord(l.Realization, 1)
	w.send(wireMsg{Type: mtResult, Spec: "job", Realization: l.Realization, Lease: l.Lease, Record: rec.MarshalBinary()})
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: l.Realization, Lease: l.Lease, Records: 1})

	r := waitJob(t, res)
	if r.err != nil {
		t.Fatalf("RunJob: %v", r.err)
	}
	st := r.st
	if st.Expired != 0 || st.Reissued != 0 || st.LeasesIssued != 1 {
		t.Errorf("heartbeats failed to hold the lease: issued=%d expired=%d reissued=%d", st.LeasesIssued, st.Expired, st.Reissued)
	}
	if st.StaleHB < 1 {
		t.Errorf("stale heartbeat not counted: StaleHB=%d", st.StaleHB)
	}
	if st.Completions != 1 || st.Done != 1 {
		t.Errorf("completions=%d done=%d, want 1/1", st.Completions, st.Done)
	}
}

// TestCompletionVerificationRejectsShortStream pins the lost-record
// guard: a completion claiming more records than the journal holds is
// rejected, burns a worker-retry, and with the budget spent the
// realization is given up to the final local reduction — never falsely
// marked done.
func TestCompletionVerificationRejectsShortStream(t *testing.T) {
	t.Parallel()
	net := p2p.NewInMemoryNetwork()
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc := sim.Scale{Realizations: 1}
	path := filepath.Join(t.TempDir(), "job.journal")
	j := openTestJournal(t, path, "job", 13, sc, false)
	defer j.Close()
	cfg := JobConfig{Spec: "job", Seed: 13, Scale: sc, LeaseTTL: time.Minute, WorkerRetries: 0}
	res := startJob(context.Background(), srv, cfg, j)

	w := newFakeWorker(t, net, "w", srv.Addr())
	l := w.claimLease(5 * time.Second)

	// One record arrives; the completion claims three were streamed.
	rec := testRecord(0, 1)
	w.send(wireMsg{Type: mtResult, Spec: "job", Realization: 0, Lease: l.Lease, Record: rec.MarshalBinary()})
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: l.Lease, Records: 3})

	r := waitJob(t, res)
	if r.err != nil {
		t.Fatalf("RunJob: %v", r.err)
	}
	st := r.st
	if st.Rejected != 1 || st.GivenUp != 1 {
		t.Errorf("rejected=%d givenUp=%d, want 1/1", st.Rejected, st.GivenUp)
	}
	if st.Completions != 0 || st.Done != 0 {
		t.Errorf("short stream was marked done: completions=%d done=%d", st.Completions, st.Done)
	}
	if st.Accepted != 1 {
		t.Errorf("accepted=%d, want 1 (the record itself is good)", st.Accepted)
	}
	if got := j.DoneRealizations(); len(got) != 0 {
		t.Errorf("journal marked %v done after rejected completion", got)
	}
}

// TestCoordinatorRestartReplaysTornJournal crashes the coordinator
// mid-job (context cancel after one completion), tears the journal tail,
// and restarts: the resumed job must serve only the unfinished
// realization, dedup the finished one's records live, and settle with
// both realizations done.
func TestCoordinatorRestartReplaysTornJournal(t *testing.T) {
	t.Parallel()
	net := p2p.NewInMemoryNetwork()
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}

	sc := sim.Scale{Realizations: 2}
	path := filepath.Join(t.TempDir(), "job.journal")
	j := openTestJournal(t, path, "job", 17, sc, false)
	cfg := JobConfig{Spec: "job", Seed: 17, Scale: sc, LeaseTTL: time.Minute, WorkerRetries: 5}

	ctx1, cancel1 := context.WithCancel(context.Background())
	res1 := startJob(ctx1, srv, cfg, j)

	w := newFakeWorker(t, net, "w", srv.Addr())
	l0 := w.claimLease(5 * time.Second)
	if l0.Realization != 0 {
		t.Fatalf("lease got r=%d, want 0", l0.Realization)
	}
	rec0 := testRecord(0, 1)
	w.send(wireMsg{Type: mtResult, Spec: "job", Realization: 0, Lease: l0.Lease, Record: rec0.MarshalBinary()})
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: l0.Lease, Records: 1})

	// Wait until the completion is journaled, then pull the plug.
	waitUntil := time.Now().Add(10 * time.Second)
	for len(j.DoneRealizations()) == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("completion never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel1()
	r1 := waitJob(t, res1)
	if !errors.Is(r1.err, context.Canceled) {
		t.Fatalf("cancelled RunJob returned %v", r1.err)
	}
	if r1.st.Done != 1 {
		t.Fatalf("first run done=%d, want 1", r1.st.Done)
	}
	srv.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	// Tear the tail: half a record, as a crash mid-write would leave.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := testRecord(1, 8).MarshalBinary()
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: resume the journal, re-register the endpoint, serve again.
	j2 := openTestJournal(t, path, "job", 17, sc, true)
	defer j2.Close()
	if got := j2.DoneRealizations(); !got[0] || len(got) != 1 {
		t.Fatalf("resumed done set %v, want {0}", got)
	}
	if got := j2.RecordCount(0); got != 1 {
		t.Fatalf("resumed RecordCount(0)=%d, want 1", got)
	}
	srv2, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	res2 := startJob(context.Background(), srv2, cfg, j2)

	l1 := w.claimLease(5 * time.Second)
	if l1.Realization != 1 {
		t.Fatalf("resumed job leased r=%d, want 1 (r=0 is journaled done)", l1.Realization)
	}
	// A late duplicate of the finished realization's record dedups live.
	w.send(wireMsg{Type: mtResult, Spec: "job", Realization: 0, Lease: l0.Lease, Record: rec0.MarshalBinary()})
	rec1 := testRecord(1, 2)
	w.send(wireMsg{Type: mtResult, Spec: "job", Realization: 1, Lease: l1.Lease, Record: rec1.MarshalBinary()})
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 1, Lease: l1.Lease, Records: 1})

	r2 := waitJob(t, res2)
	if r2.err != nil {
		t.Fatalf("resumed RunJob: %v", r2.err)
	}
	st := r2.st
	if st.Done != 2 || st.Completions != 1 {
		t.Errorf("resumed job done=%d completions=%d, want 2/1", st.Done, st.Completions)
	}
	if st.Accepted != 1 || st.DupRecords != 1 {
		t.Errorf("resumed job accepted=%d dup=%d, want 1/1", st.Accepted, st.DupRecords)
	}
}
