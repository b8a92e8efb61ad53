package coord

// Chaos integration tests: real RunWorker fleets executing real registry
// specs at tiny scale, with crashes, fault injection, partitions, and a
// coordinator kill+resume — and one invariant under all of it: the
// figures reduced from the coordinator's journal are byte-identical to a
// plain local run. Distribution and failure may only cost time, never
// bits; that is the determinism contract ROADMAP item 4 promises.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// figsCSV renders figures exactly as the CLI would write them, one CSV
// per figure, concatenated — the byte string the identity tests compare.
func figsCSV(t *testing.T, figs []sim.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fig := range figs {
		fmt.Fprintf(&buf, "## %s\n", fig.ID)
		if err := sim.WriteCSV(&buf, fig); err != nil {
			t.Fatalf("csv %s: %v", fig.ID, err)
		}
	}
	return buf.Bytes()
}

// runLocalBaseline computes the spec the ordinary way — one process, no
// journal, no distribution.
func runLocalBaseline(t *testing.T, specID string, sc sim.Scale, seed uint64) []byte {
	t.Helper()
	spec, err := sim.Lookup(specID)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Distributable {
		t.Fatalf("%s is not marked Distributable", specID)
	}
	scRun := sc
	scRun.Run = sim.NewRunControl(context.Background(), 0, 0, nil)
	figs, err := spec.Run(scRun, seed)
	if err != nil {
		t.Fatalf("baseline %s: %v", specID, err)
	}
	return figsCSV(t, figs)
}

// reduceFromJournal is the coordinator's final step: a normal local spec
// run against the job's journal, replaying every accepted record and
// recomputing whatever the fleet never delivered.
func reduceFromJournal(t *testing.T, specID string, sc sim.Scale, seed uint64, j *sim.Journal) []byte {
	t.Helper()
	spec, err := sim.Lookup(specID)
	if err != nil {
		t.Fatal(err)
	}
	scRun := sc
	scRun.Run = sim.NewRunControl(context.Background(), 0, 0, j)
	figs, err := spec.Run(scRun, seed)
	if err != nil {
		t.Fatalf("final reduction %s: %v", specID, err)
	}
	return figsCSV(t, figs)
}

// workerHandle owns one RunWorker goroutine.
type workerHandle struct {
	addr   string
	cancel context.CancelFunc
	done   chan struct{}
	stats  WorkerStats
	err    error
}

func startWorkerOn(net p2p.Network, coordAddr, addr string, retries int) *workerHandle {
	ctx, cancel := context.WithCancel(context.Background())
	h := &workerHandle{addr: addr, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.stats, h.err = RunWorker(ctx, net, WorkerConfig{
			CoordAddr: coordAddr, Addr: addr, Retries: retries,
			Patience: 5 * time.Minute, ClaimInterval: 50 * time.Millisecond,
		})
	}()
	return h
}

// stopWorkers dismisses the fleet the polite way first (shutdown
// message), then the hard way (context cancel) for any worker that
// missed it.
func stopWorkers(t *testing.T, srv *Server, hs ...*workerHandle) {
	t.Helper()
	srv.ShutdownWorkers()
	for _, h := range hs {
		select {
		case <-h.done:
		case <-time.After(10 * time.Second):
			h.cancel()
			select {
			case <-h.done:
			case <-time.After(10 * time.Second):
				t.Errorf("worker %s did not exit", h.addr)
			}
		}
	}
}

// resultTrigger wraps a Network and fires fn exactly once, when addr
// sends its first slot record — the deterministic "crash mid-realization"
// hook: by construction the victim dies with a lease held and its record
// stream torn partway.
type resultTrigger struct {
	p2p.Network
	addr string
	fn   func()
	once sync.Once
}

func (n *resultTrigger) Send(env p2p.Envelope) error {
	if env.From == n.addr {
		if m, ok := decodeWire(env); ok && m.Type == mtResult {
			n.once.Do(n.fn)
		}
	}
	return n.Network.Send(env)
}

// TestDistributedFig9ByteIdenticalUnderWorkerCrash runs fig9 on a
// three-worker fleet and SIGKILLs (context-cancels, no farewell) one
// worker the moment it streams its first record. The lease expires, the
// realization is stolen and recomputed, the crashed worker's partial
// stream dedups — and the reduced figures are byte-identical to a local
// run.
func TestDistributedFig9ByteIdenticalUnderWorkerCrash(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 250, Realizations: 3, Sources: 3, MaxTTLFlood: 5, MaxTTLNF: 3}
	const specID, seed = "fig9", uint64(42)
	want := runLocalBaseline(t, specID, sc, seed)

	inner := p2p.NewInMemoryNetwork()
	srv, err := NewServer(inner, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := filepath.Join(t.TempDir(), specID+".journal")
	j, err := sim.OpenJournal(path, specID, seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Worker w1 crashes on its first streamed record; w2 and w3 live.
	w1ctx, w1cancel := context.WithCancel(context.Background())
	crashNet := &resultTrigger{Network: inner, addr: "w1", fn: w1cancel}
	w1 := &workerHandle{addr: "w1", cancel: w1cancel, done: make(chan struct{})}
	go func() {
		defer close(w1.done)
		w1.stats, w1.err = RunWorker(w1ctx, crashNet, WorkerConfig{
			CoordAddr: srv.Addr(), Addr: "w1",
			Patience: 5 * time.Minute, ClaimInterval: 50 * time.Millisecond,
		})
	}()
	w2 := startWorkerOn(inner, srv.Addr(), "w2", 0)
	w3 := startWorkerOn(inner, srv.Addr(), "w3", 0)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := srv.RunJob(ctx, JobConfig{
		Spec: specID, Seed: seed, Scale: sc,
		LeaseTTL: 400 * time.Millisecond, Heartbeat: 100 * time.Millisecond, WorkerRetries: 3,
	}, j)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if st.Done != sc.Realizations {
		t.Fatalf("job settled with done=%d givenUp=%d, want all %d done", st.Done, st.GivenUp, sc.Realizations)
	}
	// The crash must actually have forced a steal.
	if st.Expired < 1 || st.Reissued < 1 {
		t.Errorf("crash left no trace: expired=%d reissued=%d", st.Expired, st.Reissued)
	}
	select {
	case <-w1.done:
		if !errors.Is(w1.err, context.Canceled) {
			t.Errorf("crashed worker returned %v, want context.Canceled", w1.err)
		}
	case <-time.After(10 * time.Second):
		t.Error("crashed worker did not exit")
	}

	got := reduceFromJournal(t, specID, sc, seed, j)
	if !bytes.Equal(want, got) {
		t.Errorf("distributed %s differs from local run (%d vs %d bytes)", specID, len(got), len(want))
	}
	stopWorkers(t, srv, w2, w3)
}

// TestDistributedDESFloodByteIdenticalUnderFaultyNetwork runs the DES
// flooding spec over a transport injecting drops, duplicates, and
// reorders, with one worker partitioned away for the first stretch of
// the job. Lost records surface as rejected completions and reissues;
// duplicates dedup; none of it may move a byte of output.
func TestDistributedDESFloodByteIdenticalUnderFaultyNetwork(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 400, Realizations: 3, Sources: 3, MaxTTLFlood: 5, MaxTTLNF: 2}
	const specID, seed = "desflood", uint64(777)
	want := runLocalBaseline(t, specID, sc, seed)

	inner := p2p.NewInMemoryNetwork()
	faulty := p2p.NewFaultyNetwork(inner, p2p.FaultConfig{
		Seed: 99, Drop: 0.02, Dup: 0.05, Reorder: 0.05,
	})
	srv, err := NewServer(faulty, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := filepath.Join(t.TempDir(), specID+".journal")
	j, err := sim.OpenJournal(path, specID, seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	w1 := startWorkerOn(faulty, srv.Addr(), "w1", 0)
	w2 := startWorkerOn(faulty, srv.Addr(), "w2", 0)
	// w3 starts inside a partition and is healed into the job later: its
	// early claims vanish, and any lease it held from a pre-partition race
	// is stolen.
	faulty.Partition("island", "w3")
	w3 := startWorkerOn(faulty, srv.Addr(), "w3", 0)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	// On a loaded host w1 and w2 can finish the whole job before w3 sends
	// its first claim, so the job starts only once the partition has
	// dropped one, and w3 is healed into it after its first journaled
	// completion. No timer decides whether the partition injects a fault.
	poll := func(done func() bool) bool {
		for !done() {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(5 * time.Millisecond):
			}
		}
		return true
	}
	if !poll(func() bool { return faulty.Stats().PartitionDropped > 0 }) {
		t.Fatal("w3's claims never reached the partition")
	}
	go func() {
		if poll(func() bool { return len(j.DoneRealizations()) > 0 }) {
			faulty.Heal()
		}
	}()
	st, err := srv.RunJob(ctx, JobConfig{
		Spec: specID, Seed: seed, Scale: sc,
		LeaseTTL: 400 * time.Millisecond, Heartbeat: 100 * time.Millisecond, WorkerRetries: 6,
	}, j)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if st.Done+int(st.GivenUp) < sc.Realizations {
		t.Fatalf("job did not settle: done=%d givenUp=%d", st.Done, st.GivenUp)
	}
	if st.Accepted == 0 {
		t.Error("no records were distributed at all")
	}
	if fs := faulty.Stats(); fs.PartitionDropped == 0 {
		t.Errorf("partition injected no faults: %+v", fs)
	}

	// Byte-identity holds even if fault injection drove realizations to
	// give-up: the final reduction recomputes them locally.
	got := reduceFromJournal(t, specID, sc, seed, j)
	if !bytes.Equal(want, got) {
		t.Errorf("distributed %s differs from local run (%d vs %d bytes)", specID, len(got), len(want))
	}
	faulty.Heal()
	stopWorkers(t, srv, w1, w2, w3)
}

// TestDistributedCoordinatorKillResumeByteIdentical kills the
// coordinator after its first journaled completion, tears the journal
// tail, and brings a new coordinator up at the same address against the
// resumed journal — with the original worker surviving the outage. The
// resumed job finishes the remaining realizations and the reduction is
// byte-identical to a local run.
func TestDistributedCoordinatorKillResumeByteIdentical(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 200, Realizations: 3, Sources: 2, MaxTTLFlood: 4, MaxTTLNF: 2}
	const specID, seed = "fig9", uint64(1234)
	want := runLocalBaseline(t, specID, sc, seed)

	inner := p2p.NewInMemoryNetwork()
	srv1, err := NewServer(inner, "coord")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), specID+".journal")
	j1, err := sim.OpenJournal(path, specID, seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := JobConfig{
		Spec: specID, Seed: seed, Scale: sc,
		LeaseTTL: 500 * time.Millisecond, Heartbeat: 100 * time.Millisecond, WorkerRetries: 5,
	}

	// One worker in phase one makes completions sequential, so the kill
	// lands with work both finished and outstanding.
	w1 := startWorkerOn(inner, srv1.Addr(), "w1", 0)

	ctx1, cancel1 := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(2 * time.Minute)
		for len(j1.DoneRealizations()) == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		cancel1()
	}()
	st1, err1 := srv1.RunJob(ctx1, cfg, j1)
	cancel1()
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("killed RunJob returned %v (done=%d)", err1, st1.Done)
	}
	if st1.Done < 1 {
		t.Fatalf("first run journaled no completion (done=%d)", st1.Done)
	}
	srv1.Close()
	if err := j1.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	tearJournalTail(t, path)

	// Restart at the same address; w1 is still claiming and reconnects.
	j2, err := sim.OpenJournal(path, specID, seed, sc, true)
	if err != nil {
		t.Fatalf("resume journal: %v", err)
	}
	defer j2.Close()
	if len(j2.DoneRealizations()) < 1 {
		t.Fatal("resume recovered no done markers")
	}
	srv2, err := NewServer(inner, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	w2 := startWorkerOn(inner, srv2.Addr(), "w2", 0)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel2()
	st2, err2 := srv2.RunJob(ctx2, cfg, j2)
	if err2 != nil {
		t.Fatalf("resumed RunJob: %v", err2)
	}
	if st2.Done != sc.Realizations {
		t.Fatalf("resumed job done=%d givenUp=%d, want all %d done", st2.Done, st2.GivenUp, sc.Realizations)
	}

	got := reduceFromJournal(t, specID, sc, seed, j2)
	if !bytes.Equal(want, got) {
		t.Errorf("kill+resume %s differs from local run (%d vs %d bytes)", specID, len(got), len(want))
	}
	stopWorkers(t, srv2, w1, w2)
}

// TestRunWorkerRefusesSkewedWorkload pins the version-skew guard end to
// end: a lease whose fingerprint does not match the shipped workload
// makes the worker report failure and exit fatally rather than compute.
// So does a lease from a coordinator that speaks the protocol before
// credit acks, whose fingerprint is the bare workload fingerprint: such a
// coordinator never acks, and the worker must not stream to it.
func TestRunWorkerRefusesSkewedWorkload(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 50, Realizations: 1, Sources: 1, MaxTTLFlood: 1, MaxTTLNF: 2}
	fp := leaseFingerprint("fig9", 1, sc)
	fp[len(fp)-2] ^= 0xFF
	checkLeaseRefused(t, sc, fp)
	checkLeaseRefused(t, sc, sim.WorkloadFingerprint("fig9", 1, sc))
}

// TestRunWorkerRefusesInvalidWorkload: a lease whose workload
// Scale.Validate refuses is refused the way skew is, even when its
// fingerprint matches — the worker reports failure and exits fatally
// instead of starting the run.
func TestRunWorkerRefusesInvalidWorkload(t *testing.T) {
	t.Parallel()
	sc := sim.Scale{NSearch: 50, Realizations: 1, Sources: -1, MaxTTLNF: 2}
	checkLeaseRefused(t, sc, leaseFingerprint("fig9", 1, sc))
}

// checkLeaseRefused grants a worker one fig9 lease carrying sc and the
// fingerprint fp, and requires it to report the lease failed and then exit
// with an error.
func checkLeaseRefused(t *testing.T, sc sim.Scale, fp []byte) {
	t.Helper()
	net := p2p.NewInMemoryNetwork()
	c := newScriptedCoord(t, net)

	done := make(chan struct{})
	var werr error
	go func() {
		defer close(done)
		_, werr = RunWorker(context.Background(), net, WorkerConfig{
			CoordAddr: "coord", Addr: "w", ClaimInterval: 20 * time.Millisecond,
		})
	}()

	claim := c.next(mtClaim)
	wire := sc.WorkloadOnly()
	if err := sendWire(net, "coord", claim.Worker, wireMsg{
		Type: mtLease, Spec: "fig9", Seed: 1, Scale: &wire,
		Fingerprint: fp, Realization: 0, Lease: 1,
		TTLMillis: 60000, HBMillis: 1000, Window: creditWindow,
	}); err != nil {
		t.Fatal(err)
	}
	c.next(mtFail)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker kept serving after a refused lease")
	}
	if werr == nil {
		t.Error("worker exited without error after a refused lease")
	}
}

// tearJournalTail appends half a valid record — the torn frame a crash
// mid-write leaves behind.
func tearJournalTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := testRecord(0, 0xFF).MarshalBinary()
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
