package coord

// Tests for the record path from a worker's send to the coordinator's
// journal: large records over real TCP, the allocation budget of the result
// handler, duplicated and reordered result envelopes, and arbitrary bytes
// arriving as a result.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// TestLargeRecordOverTCP is the regression test for the silently lost
// histogram: a no-cutoff degree histogram at paper scale is a record of
// ~0.8 MB, which the old newline-JSON transport (1 MiB frame cap, record
// base64'd twice) discarded on the coordinator's side while the worker's
// Send returned nil — every completion of that realization was then
// rejected until it was given up. A 1.5 MB degree-histogram record must now
// travel sendWire → loopback TCP → RunJob → journal and count towards its
// completion; and a record over the transport's cap must fail the worker's
// Send with a reason, not vanish.
func TestLargeRecordOverTCP(t *testing.T) {
	t.Parallel()
	cnet, wnet := p2p.NewTCPNetwork(), p2p.NewTCPNetwork()
	t.Cleanup(cnet.Close)
	t.Cleanup(wnet.Close)
	srv, err := NewServer(cnet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sc := sim.Scale{Realizations: 1}
	j := openTestJournal(t, filepath.Join(t.TempDir(), "job.journal"), "job", 3, sc, false)
	defer j.Close()
	res := startJob(context.Background(), srv, JobConfig{Spec: "job", Seed: 3, Scale: sc, LeaseTTL: time.Minute}, j)

	w := newFakeWorker(t, wnet, "127.0.0.1:0", srv.Addr())
	w.addr = wnet.ListenAddr("127.0.0.1:0")
	l := w.claimLease(5 * time.Second)

	const kindDegreeHist = 2
	payload := make([]byte, 1500<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	rec := sim.SlotRecord{Kind: kindDegreeHist, Stream: 0xfeed, Sub: 1, Realization: 0, Payload: payload}
	w.send(wireMsg{Type: mtResult, Spec: "job", Record: rec.MarshalBinary()})
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: l.Lease, Records: 1})

	r := waitJob(t, res)
	if r.err != nil {
		t.Fatalf("RunJob: %v", r.err)
	}
	if st := r.st; st.Accepted != 1 || st.Completions != 1 || st.BadRecords+st.Rejected+st.GivenUp != 0 {
		t.Fatalf("job stats %+v: the 1.5 MB record did not settle its realization", st)
	}
	if got := j.RecordCount(0); got != 1 {
		t.Fatalf("RecordCount(0) = %d, want 1", got)
	}
	if st := cnet.Stats(); st.BadFrames != 0 {
		t.Fatalf("coordinator transport counted %d bad frame(s)", st.BadFrames)
	}

	err = sendWire(wnet, w.addr, srv.Addr(), wireMsg{Type: mtResult, Spec: "job", Record: make([]byte, p2p.MaxData+1)})
	if !errors.Is(err, p2p.ErrFrameTooLarge) {
		t.Fatalf("sending a record over the transport cap = %v, want ErrFrameTooLarge", err)
	}
}

// resultEnvelope is what sendWire puts on the network for one record.
func resultEnvelope(spec string, frame []byte) p2p.Envelope {
	return p2p.Envelope{From: "w", To: "coord", Msg: p2p.Message{Kind: p2p.KindCoord, ID: mtResult, Key: spec, Data: frame}}
}

// TestResultPathAllocs pins the coordinator's cost per streamed record:
// decoding the envelope and journaling the frame allocates a small constant
// — index entry, spec string — whatever the record's size, because the
// frame is validated where the transport put it and written from there.
func TestResultPathAllocs(t *testing.T) {
	const records, payloadLen = 64, 84_000
	j := openTestJournal(t, filepath.Join(t.TempDir(), "job.journal"), "job", 3, sim.Scale{Realizations: records}, false)
	defer j.Close()
	envs := make([]p2p.Envelope, records)
	for r := range envs {
		envs[r] = resultEnvelope("job", testRecordSized(r, payloadLen).MarshalBinary())
	}
	var st Stats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, env := range envs {
		m, ok := decodeWire(env)
		if !ok || m.Type != mtResult || m.Spec != "job" {
			t.Fatalf("decodeWire = %+v, %v", m.Type, ok)
		}
		if _, err := acceptResult(j, records, m.Record, &st); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if st.Accepted != records {
		t.Fatalf("accepted %d of %d records (stats %+v)", st.Accepted, records, st)
	}
	if perRecord := (after.TotalAlloc - before.TotalAlloc) / records; perRecord > 1024 {
		t.Errorf("result path allocates %d B per %d B record, want a small constant", perRecord, payloadLen)
	}
}

// recyclingNet is an in-memory network that, like TCPNetwork, takes
// received Data buffers back through Recycle, and keeps what it was handed.
// events logs each Recycle and each ack sent, in order.
type recyclingNet struct {
	*p2p.InMemoryNetwork
	mu       sync.Mutex
	recycled [][]byte
	events   []string
}

func (n *recyclingNet) Recycle(data []byte) {
	n.mu.Lock()
	n.recycled = append(n.recycled, data)
	n.events = append(n.events, "recycle")
	n.mu.Unlock()
}

func (n *recyclingNet) Send(env p2p.Envelope) error {
	if m, ok := decodeWire(env); ok && m.Type == mtAck {
		n.mu.Lock()
		n.events = append(n.events, mtAck)
		n.mu.Unlock()
	}
	return n.InMemoryNetwork.Send(env)
}

// TestRunJobRecyclesResultFrames: RunJob hands every result buffer back to
// a transport that takes them — once journaled, and also when it drops the
// frame as bad or as a straggler of another spec — and nothing else. Only
// the journaled frame is acked, and only after its buffer is back, so the
// worker's next frame can reuse it.
func TestRunJobRecyclesResultFrames(t *testing.T) {
	t.Parallel()
	net := &recyclingNet{InMemoryNetwork: p2p.NewInMemoryNetwork()}
	srv, err := NewServer(net, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc := sim.Scale{Realizations: 1}
	j := openTestJournal(t, filepath.Join(t.TempDir(), "job.journal"), "job", 13, sc, false)
	defer j.Close()
	res := startJob(context.Background(), srv, JobConfig{Spec: "job", Seed: 13, Scale: sc, LeaseTTL: time.Minute}, j)

	w := newFakeWorker(t, net, "w", srv.Addr())
	l := w.claimLease(5 * time.Second)
	frames := [][]byte{testRecord(0, 1).MarshalBinary(), testRecord(0, 2).MarshalBinary(), {1, 2, 3}}
	for i, spec := range []string{"job", "other", "job"} {
		w.send(wireMsg{Type: mtResult, Spec: spec, Record: frames[i]})
	}
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: l.Lease, Records: 1})
	r := waitJob(t, res)
	if r.err != nil || r.st.Accepted != 1 || r.st.BadRecords != 1 || r.st.Completions != 1 {
		t.Fatalf("RunJob = %+v, %v; want one accepted, one bad, one completion", r.st, r.err)
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.recycled) != len(frames) {
		t.Fatalf("RunJob recycled %d buffers for %d result frames", len(net.recycled), len(frames))
	}
	for i, b := range net.recycled {
		if !bytes.Equal(b, frames[i]) {
			t.Fatalf("recycled buffer %d is not result frame %d", i, i)
		}
	}
	if want := []string{"recycle", mtAck, "recycle", "recycle"}; !slices.Equal(net.events, want) {
		t.Fatalf("RunJob recycled and acked as %v, want %v", net.events, want)
	}
}

func testRecordSized(r, payloadLen int) sim.SlotRecord {
	rec := testRecord(r, 1)
	rec.Payload = bytes.Repeat([]byte{byte(r)}, payloadLen)
	return rec
}

// TestDuplicatedReorderedResultsJournalOnce sends every result through a
// FaultyNetwork that duplicates each envelope and swaps neighbours: each
// key must be journaled exactly once, with its own bytes.
func TestDuplicatedReorderedResultsJournalOnce(t *testing.T) {
	t.Parallel()
	inner := p2p.NewInMemoryNetwork()
	faulty := p2p.NewFaultyNetwork(inner, p2p.FaultConfig{Seed: 5, Dup: 1, Reorder: 0.5})
	srv, err := NewServer(inner, "coord")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const keys = 12
	sc := sim.Scale{Realizations: 1}
	path := filepath.Join(t.TempDir(), "job.journal")
	j := openTestJournal(t, path, "job", 3, sc, false)
	res := startJob(context.Background(), srv, JobConfig{Spec: "job", Seed: 3, Scale: sc, LeaseTTL: time.Minute}, j)

	w := newFakeWorker(t, inner, "w", srv.Addr())
	l := w.claimLease(5 * time.Second)
	noisy := *w
	noisy.net = faulty
	for seq := uint64(0); seq < keys; seq++ {
		noisy.send(wireMsg{Type: mtResult, Spec: "job", Record: testRecord(0, seq).MarshalBinary()})
	}
	faulty.Flush()
	w.send(wireMsg{Type: mtComplete, Spec: "job", Realization: 0, Lease: l.Lease, Records: keys})

	r := waitJob(t, res)
	if r.err != nil {
		t.Fatalf("RunJob: %v", r.err)
	}
	// A held-back envelope goes out once; every other one goes out twice.
	fs := faulty.Stats()
	if fs.Reordered == 0 || fs.Duplicated != keys-fs.Reordered {
		t.Fatalf("fault schedule did not fire: %+v", fs)
	}
	if st := r.st; st.Accepted != keys || st.DupRecords != fs.Duplicated || st.BadRecords != 0 || st.Completions != 1 {
		t.Fatalf("job stats %+v, want %d accepted and %d duplicates dropped", st, keys, fs.Duplicated)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := sim.InspectJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != keys || info.TornBytes() != 0 {
		t.Fatalf("journal holds %d records (%d torn bytes), want %d", len(info.Records), info.TornBytes(), keys)
	}
	seen := map[uint64]bool{}
	for _, rec := range info.Records {
		if seen[rec.Stream] || rec.PayloadLen != len(testRecord(0, 0).Payload) {
			t.Fatalf("record %+v journaled twice or damaged", rec)
		}
		seen[rec.Stream] = true
	}
}

// FuzzCoordResult hands arbitrary bytes to the coordinator's result handler
// as the Data of a result envelope, twice. The handler must never panic or
// fail the job; it must journal exactly the frames sim.DecodeSlotRecord
// accepts for a realization of the job, count everything else bad, and
// count a key once however often it arrives. Seeds in
// testdata/fuzz/FuzzCoordResult are real record frames, whole, truncated,
// bit-flipped, re-keyed out of range and of bookkeeping kinds.
func FuzzCoordResult(f *testing.F) {
	const n = 4
	f.Add(testRecord(1, 1).MarshalBinary())
	f.Add(testRecord(n, 2).MarshalBinary())
	f.Add([]byte{1, 2, 3})
	j, err := sim.OpenJournal(filepath.Join(f.TempDir(), "job.journal"), "job", 3, sim.Scale{Realizations: n}, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { j.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeWire(resultEnvelope("job", data))
		if !ok {
			if len(data) != 0 {
				t.Fatal("a non-empty result envelope did not decode")
			}
			return
		}
		if m.Type != mtResult || m.Spec != "job" {
			t.Fatalf("result envelope decoded as %q for %q", m.Type, m.Spec)
		}
		rec, derr := sim.DecodeSlotRecord(data)
		valid := derr == nil && rec.Realization >= 0 && rec.Realization < n
		held := j.Resumed()
		var first, second Stats
		r1, err := acceptResult(j, n, m.Record, &first)
		if err != nil {
			t.Fatalf("result handler failed the job: %v", err)
		}
		r2, err := acceptResult(j, n, m.Record, &second)
		if err != nil {
			t.Fatalf("result handler failed the job: %v", err)
		}
		if want := map[bool]int{true: rec.Realization, false: -1}[valid]; r1 != want || r2 != want {
			t.Fatalf("result handler credited realizations %d, %d, want %d", r1, r2, want)
		}
		switch {
		case !valid:
			if first != (Stats{BadRecords: 1}) || second != first || j.Resumed() != held {
				t.Fatalf("invalid frame (%v) handled as %+v then %+v", derr, first, second)
			}
		case first.Accepted+first.DupRecords != 1 || first.BadRecords != 0 || second != (Stats{DupRecords: 1}):
			t.Fatalf("valid record %s handled as %+v then %+v", rec.Key(), first, second)
		case j.Resumed() != held+int(first.Accepted):
			t.Fatalf("journal index went %d → %d for %+v", held, j.Resumed(), first)
		}
	})
}
