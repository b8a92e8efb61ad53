package sim

// Tests for the distributed-run surface (ISSUE 10 groundwork): the slot
// record wire codec, first-writer-wins Accept, completion markers that
// survive resume, worker-restricted runs whose sink records are
// bit-identical to a local run's journal records, and the read-only
// journal inspector behind `analyze journal`.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"scalefree/internal/gen"
)

func TestSlotRecordCodecRoundTrip(t *testing.T) {
	t.Parallel()
	rec := SlotRecord{Kind: recSweepSlots, Stream: 0xdeadbeef, Sub: 42, Realization: 7,
		Payload: rowPayload([][]float64{{1.5, -0.0, 5e-324}}, 3)}
	b := rec.MarshalBinary()
	got, err := DecodeSlotRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.key() != rec.key() || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("round trip = %+v, want %+v", got, rec)
	}
	// A decoded record re-marshals to the bytes it was decoded from, without
	// a copy; one re-keyed since is encoded afresh under the new key.
	if again := got.MarshalBinary(); &again[0] != &b[0] {
		t.Fatal("MarshalBinary of a decoded record re-encoded it")
	}
	got.Realization++
	if moved, err := DecodeSlotRecord(got.MarshalBinary()); err != nil || moved.Realization != rec.Realization+1 || !bytes.Equal(moved.Payload, rec.Payload) {
		t.Fatalf("re-keyed record marshalled as %+v (err %v)", moved, err)
	}
	// A flipped payload bit must fail the CRC.
	corrupt := append([]byte{}, b...)
	corrupt[len(corrupt)-1] ^= 1
	if _, err := DecodeSlotRecord(corrupt); err == nil {
		t.Fatal("corrupt record decoded")
	}
	// A truncated frame must fail, not decode a prefix.
	if _, err := DecodeSlotRecord(b[:len(b)-3]); err == nil {
		t.Fatal("truncated record decoded")
	}
	// Trailing garbage after a valid frame must be rejected.
	if _, err := DecodeSlotRecord(append(append([]byte{}, b...), 0xff)); err == nil {
		t.Fatal("record with trailing bytes decoded")
	}
}

func TestJournalAcceptFirstWriterWins(t *testing.T) {
	t.Parallel()
	sc := testScaleTiny()
	path := filepath.Join(t.TempDir(), "a.journal")
	j, err := OpenJournal(path, "fig9", 2007, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := SlotRecord{Kind: recSweepSlots, Stream: 3, Sub: 9, Realization: 1,
		Payload: rowPayload([][]float64{{1, 2}}, 2)}
	if fresh, err := j.Accept(rec); err != nil || !fresh {
		t.Fatalf("first Accept = (%v, %v), want (true, nil)", fresh, err)
	}
	// The late duplicate — a slow stolen-from worker re-sending — drops.
	dup := rec
	dup.Payload = rowPayload([][]float64{{99, 99}}, 2)
	if fresh, err := j.Accept(dup); err != nil || fresh {
		t.Fatalf("duplicate Accept = (%v, %v), want (false, nil)", fresh, err)
	}
	if got := j.RecordCount(1); got != 1 {
		t.Fatalf("RecordCount(1) = %d, want 1", got)
	}
	// Bookkeeping kinds must not ride Accept.
	if _, err := j.Accept(SlotRecord{Kind: recRealDone, Realization: 0, Payload: []byte{1}}); err == nil {
		t.Fatal("Accept of a non-slot kind succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The accepted bits — not the duplicate's — survive resume, and a
	// restarted coordinator's Accept dedups against the resumed set too.
	j2, err := OpenJournal(path, "fig9", 2007, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p, ok := j2.payloadOf(journalKey{kind: recSweepSlots, stream: 3, sub: 9, r: 1})
	if !ok || !bytes.Equal(p, rec.Payload) {
		t.Fatal("accepted record did not survive resume intact")
	}
	if got := j2.RecordCount(1); got != 1 {
		t.Fatalf("resumed RecordCount(1) = %d, want 1", got)
	}
	if fresh, err := j2.Accept(rec); err != nil || fresh {
		t.Fatalf("post-resume duplicate Accept = (%v, %v), want (false, nil)", fresh, err)
	}
}

func TestMarkRealizationDoneSurvivesResume(t *testing.T) {
	t.Parallel()
	sc := testScaleTiny()
	path := filepath.Join(t.TempDir(), "d.journal")
	j, err := OpenJournal(path, "fig9", 2007, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2, 2} { // idempotent on the repeat
		if err := j.MarkRealizationDone(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.DoneRealizations(); !reflect.DeepEqual(got, map[int]bool{0: true, 2: true}) {
		t.Fatalf("DoneRealizations() = %v", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, "fig9", 2007, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.DoneRealizations(); !reflect.DeepEqual(got, map[int]bool{0: true, 2: true}) {
		t.Fatalf("resumed DoneRealizations() = %v", got)
	}
}

// TestWorkerSinkRecordsBitIdentical is the distribution contract at the
// sim level: a worker-restricted run of a sweep — realization r only,
// records to a sink — must emit exactly the records a local journaled run
// writes for r, byte for byte, and must not build any other realization.
func TestWorkerSinkRecordsBitIdentical(t *testing.T) {
	sc := testScaleTiny()
	const seed, label = 2007, "fl"
	factory := paTopo(sc.NSearch, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: sc.MaxTTLFlood, sc: Scale{Sources: sc.Sources, Realizations: sc.Realizations}}

	// Local journaled run: the reference records.
	path := filepath.Join(t.TempDir(), "ref.journal")
	j, err := OpenJournal(path, "fig", seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := cfg
	jcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j)
	if _, err := searchSeries(label, factory, jcfg, seed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen to load the written records (appends don't populate resumed).
	ref, err := OpenJournal(path, "fig", seed, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for r := 0; r < sc.Realizations; r++ {
		var mu sync.Mutex
		var got []SlotRecord
		var builds atomic.Int64
		wcfg := cfg
		wcfg.sc.Run = NewWorkerRunControl(context.Background(), 0, r, func(rec SlotRecord) {
			mu.Lock()
			got = append(got, rec)
			mu.Unlock()
		})
		// The restricted run's own reduction only sees realization r; the
		// records are the product, the figure is not.
		if _, err := searchSeries(label, countingFactory(factory, &builds), wcfg, seed); err != nil {
			t.Fatalf("worker run r=%d: %v", r, err)
		}
		if builds.Load() != 1 {
			t.Fatalf("worker for r=%d built %d topologies, want 1", r, builds.Load())
		}
		if len(got) != 1 {
			t.Fatalf("worker for r=%d emitted %d records, want 1", r, len(got))
		}
		rec := got[0]
		if rec.Realization != r || rec.Kind != recSweepSlots {
			t.Fatalf("worker for r=%d emitted %s", r, rec.Key())
		}
		want, ok := ref.payloadOf(journalKey{kind: rec.Kind, stream: rec.Stream, sub: rec.Sub, r: r})
		if !ok {
			t.Fatalf("no local record under %s", rec.Key())
		}
		if !bytes.Equal(rec.Payload, want) {
			t.Fatalf("worker record for r=%d differs from local journal record", r)
		}
		// And the wire round trip preserves the bits.
		back, err := DecodeSlotRecord(rec.MarshalBinary())
		if err != nil || !bytes.Equal(back.Payload, want) {
			t.Fatalf("wire round trip perturbed r=%d (err=%v)", r, err)
		}
	}
}

// Same contract for the histogram records of the degree specs, which run
// with a nil sweep.
func TestWorkerSinkHistogramBitIdentical(t *testing.T) {
	sc := testScaleTiny()
	const seed = 99
	factory := paTopo(sc.NDegree, 2, gen.NoCutoff)

	path := filepath.Join(t.TempDir(), "deg.journal")
	j, err := OpenJournal(path, "fig1a", seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	jsc := sc
	jsc.Run = NewRunControl(context.Background(), 0, 0, j)
	if _, err := mergedDegreeDist("tag", factory, jsc, seed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	refJ, err := OpenJournal(path, "fig1a", seed, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer refJ.Close()

	const r = 1
	var mu sync.Mutex
	var got []SlotRecord
	wsc := sc
	wsc.Run = NewWorkerRunControl(context.Background(), 0, r, func(rec SlotRecord) {
		mu.Lock()
		got = append(got, rec)
		mu.Unlock()
	})
	if _, err := mergedDegreeDist("tag", factory, wsc, seed); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("worker emitted %d records, want 1", len(got))
	}
	rec := got[0]
	want, ok := refJ.payloadOf(journalKey{kind: rec.Kind, stream: rec.Stream, sub: rec.Sub, r: r})
	if !ok || !bytes.Equal(rec.Payload, want) {
		t.Fatalf("worker histogram record differs from local journal record (found=%v)", ok)
	}
}

// TestWorkerSinkFramesStayIntact: a worker's sink owns every frame it is
// handed. Records kept until a whole multi-series spec has run — while its
// sweepers reuse their block buffers across realizations and series — must
// still decode and equal, byte for byte, the records a local journaled run
// wrote under the same keys.
func TestWorkerSinkFramesStayIntact(t *testing.T) {
	t.Parallel()
	const seed = 2007
	ctx := context.Background()
	spec, err := Lookup("fig7")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "local.journal")
	j, err := OpenJournal(path, spec.ID, seed, tinyScale, false)
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale
	sc.Run = NewRunControl(ctx, 0, 0, j)
	if _, err := spec.Run(sc, seed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := OpenJournal(path, spec.ID, seed, tinyScale, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var mu sync.Mutex
	var got []SlotRecord
	for r := 0; r < tinyScale.Realizations; r++ {
		sc := tinyScale
		sc.Run = NewWorkerRunControl(ctx, 0, r, func(rec SlotRecord) {
			mu.Lock()
			got = append(got, rec)
			mu.Unlock()
		})
		if _, err := spec.Run(sc, seed); err != nil {
			t.Logf("worker %d reduction: %v", r, err)
		}
	}
	if len(got) != ref.Resumed() || len(got) < 2*tinyScale.Realizations {
		t.Fatalf("workers emitted %d records, the local run journaled %d", len(got), ref.Resumed())
	}
	for _, rec := range got {
		back, err := DecodeSlotRecord(rec.frame)
		if err != nil {
			t.Fatalf("record %s no longer decodes: %v", rec.Key(), err)
		}
		want, ok := ref.payloadOf(back.key())
		if !ok || back.key() != rec.key() || !bytes.Equal(rec.frame, encodeFrame(back.key(), want)) {
			t.Fatalf("record %s differs from the local journal's record under its key (found=%v)", rec.Key(), ok)
		}
	}
}

// TestWorkerSinkReleaseReusesLaneFrames: a sink that releases every record
// lends each frame back to its lane's sweeper, which encodes the lane's next
// record into the same buffer — at most one backing array per lane across
// the run's records — and every record it saw, checked before its release,
// equals byte for byte the record a local journaled run wrote under its key.
func TestWorkerSinkReleaseReusesLaneFrames(t *testing.T) {
	t.Parallel()
	const seed, lanes = 2007, 2
	spec, err := Lookup("fig7")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "local.journal")
	j, err := OpenJournal(path, spec.ID, seed, tinyScale, false)
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale
	sc.Run = NewRunControl(context.Background(), 0, 0, j)
	if _, err := spec.Run(sc, seed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := OpenJournal(path, spec.ID, seed, tinyScale, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var mu sync.Mutex
	arrays := map[*byte]bool{}
	records, bad := 0, 0
	sc = tinyScale
	sc.Workers = lanes
	sc.Run = NewWorkerRunControl(context.Background(), 0, 0, func(rec SlotRecord) {
		defer rec.Release()
		frame := rec.MarshalBinary()
		want, ok := ref.payloadOf(rec.key())
		mu.Lock()
		defer mu.Unlock()
		records++
		arrays[&frame[0]] = true
		if !ok || !bytes.Equal(frame, encodeFrame(rec.key(), want)) {
			bad++
		}
	})
	if _, err := spec.Run(sc, seed); err != nil {
		t.Logf("worker reduction: %v", err)
	}
	if bad > 0 || records < 10 {
		t.Fatalf("%d of %d released records differ from the local journal's", bad, records)
	}
	if len(arrays) > lanes {
		t.Fatalf("%d records on %d lanes took %d frame buffers, want at most one per lane", records, lanes, len(arrays))
	}
}

func TestInspectJournal(t *testing.T) {
	t.Parallel()
	sc := testScaleTiny()
	path := filepath.Join(t.TempDir(), "i.journal")
	j, err := OpenJournal(path, "fig9", 2007, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Accept(SlotRecord{Kind: recSweepSlots, Stream: 5, Sub: 6, Realization: 0,
		Payload: rowPayload([][]float64{{1}}, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkRealizationDone(0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := InspectJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Spec != "fig9" || clean.Seed != 2007 || clean.Version != journalVersion {
		t.Fatalf("header = %q/%d/v%d", clean.Spec, clean.Seed, clean.Version)
	}
	if len(clean.Records) != 1 || clean.Records[0].Realization != 0 || clean.Records[0].KindName != "sweep-slots" {
		t.Fatalf("records = %+v", clean.Records)
	}
	if !reflect.DeepEqual(clean.Done, []int{0}) {
		t.Fatalf("done = %v", clean.Done)
	}
	if clean.TornBytes() != 0 {
		t.Fatalf("clean journal reports %d torn bytes", clean.TornBytes())
	}

	// Smear a torn tail on: inspection must report it without mutating.
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
		t.Fatal(err)
	} else {
		f.Write([]byte("torn tail bytes"))
		f.Close()
	}
	torn, err := InspectJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn.TornBytes() != int64(len("torn tail bytes")) {
		t.Fatalf("TornBytes() = %d, want %d", torn.TornBytes(), len("torn tail bytes"))
	}
	if torn.GoodBytes != clean.GoodBytes || len(torn.Records) != 1 {
		t.Fatal("torn-tail inspection changed the clean-prefix report")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != torn.FileBytes {
		t.Fatal("InspectJournal mutated the file")
	}
}

func TestWorkloadFingerprint(t *testing.T) {
	t.Parallel()
	sc := testScaleTiny()
	base := WorkloadFingerprint("fig9", 2007, sc)
	// The parallelism budget must not perturb the fingerprint (a worker
	// may run with different parallelism than the coordinator).
	budget := sc
	budget.Workers = 7
	if !bytes.Equal(base, WorkloadFingerprint("fig9", 2007, budget)) {
		t.Fatal("the parallelism budget perturbed the fingerprint")
	}
	if !bytes.Equal(base, WorkloadFingerprint("fig9", 2007, sc.WorkloadOnly())) {
		t.Fatal("WorkloadOnly perturbed the fingerprint")
	}
	// Workload changes must.
	diff := sc
	diff.NSearch++
	if bytes.Equal(base, WorkloadFingerprint("fig9", 2007, diff)) {
		t.Fatal("workload change did not perturb the fingerprint")
	}
	if bytes.Equal(base, WorkloadFingerprint("fig10", 2007, sc)) {
		t.Fatal("spec change did not perturb the fingerprint")
	}
	if bytes.Equal(base, WorkloadFingerprint("fig9", 2008, sc)) {
		t.Fatal("seed change did not perturb the fingerprint")
	}
}

// recordEnds returns the file offset just past every record of a journal
// image (the header record included), for cutting it back to a boundary.
func recordEnds(t *testing.T, image []byte) []int {
	t.Helper()
	var ends []int
	for off := len(journalMagic); ; {
		_, _, n, ok := parseFrame(image[off:])
		if !ok {
			return ends
		}
		off += n
		ends = append(ends, off)
	}
}

// TestDistributableSpecsResumeAndWorkerSink is the journal contract of
// every distributable spec, against the golden bytes of specDigests that
// TestAllSpecsRun checks each spec's unjournaled run against: (a) every
// realization run alone as a distributed worker, its records accepted into
// a fresh journal and reduced locally, publishes exactly those bytes, and
// the fleet's records are complete — the reduction appends none; (b) that
// journal, cut back to a record boundary mid-spec and resumed under another
// parallelism budget, publishes them too, appending exactly the records the
// cut dropped; (c) the record families the reduction claims share a build
// seed only where sharedSeeds says so (checkSharedSeeds), and the fig9/fig11
// and fig10/fig12 pairs claim one seed set.
func TestDistributableSpecsResumeAndWorkerSink(t *testing.T) {
	t.Parallel()
	const seed = 12345
	ctx := context.Background()
	var (
		mu    sync.Mutex
		seeds = map[string]map[uint64]bool{} // spec -> its claimed build seeds
	)
	// The cleanup runs once every parallel subtest has finished, so it sees
	// the seed sets of whichever pair members this invocation ran.
	t.Cleanup(func() {
		for _, pair := range [][2]string{{"fig9", "fig11"}, {"fig10", "fig12"}} {
			a, aok := seeds[pair[0]]
			b, bok := seeds[pair[1]]
			if aok && bok && !reflect.DeepEqual(a, b) {
				t.Errorf("%s and %s claim different build seeds; they must grow the same topologies", pair[0], pair[1])
			}
		}
	})
	for _, spec := range Registry() {
		if !spec.Distributable {
			continue
		}
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			want, dir := specDigests[spec.ID], t.TempDir()
			// reduce runs the spec over journal j under the given budget and
			// returns the digest of what it published with the record
			// families its run claimed.
			reduce := func(j *Journal, workers int) (uint64, map[journalClaimKey]string) {
				t.Helper()
				sc := tinyScale
				sc.Workers = workers
				sc.Run = NewRunControl(ctx, 0, 0, j)
				figs, err := spec.Run(sc, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				return figuresDigest(t, figs), sc.Run.claims
			}
			open := func(name string, resume bool) *Journal {
				t.Helper()
				j, err := OpenJournal(filepath.Join(dir, name), spec.ID, seed, tinyScale, resume)
				if err != nil {
					t.Fatal(err)
				}
				return j
			}

			fleet := open("fleet.journal", false)
			for r := 0; r < tinyScale.Realizations; r++ {
				sc := tinyScale
				sc.Run = NewWorkerRunControl(ctx, 0, r, func(rec SlotRecord) {
					if fresh, err := fleet.Accept(rec); err != nil || !fresh || rec.Realization != r {
						t.Errorf("worker %d: record %s accepted fresh=%v err=%v", r, rec.Key(), fresh, err)
					}
				})
				// A restricted run's own reduction sees one realization and
				// may fail on it; the records are the product.
				if _, err := spec.Run(sc, seed); err != nil {
					t.Logf("worker %d reduction: %v", r, err)
				}
			}
			streamed := fleet.Resumed()
			got, claims := reduce(fleet, 0)
			claimed := checkSharedSeeds(t, spec.ID, seed, claims)
			mu.Lock()
			seeds[spec.ID] = claimed
			mu.Unlock()
			if got != want {
				t.Fatalf("reduction of worker records published %#x, want %#x", got, want)
			}
			image, err := os.ReadFile(filepath.Join(dir, "fleet.journal"))
			if err != nil {
				t.Fatal(err)
			}
			ends := recordEnds(t, image)
			if len(ends)-1 != streamed {
				t.Fatalf("fleet journal holds %d records after reduction; the workers streamed %d", len(ends)-1, streamed)
			}
			if len(ends) < 3 {
				t.Fatalf("journal holds %d records, too few to cut mid-spec", len(ends))
			}
			if err := os.WriteFile(filepath.Join(dir, "cut.journal"), image[:ends[len(ends)/2]], 0o644); err != nil {
				t.Fatal(err)
			}
			cut := open("cut.journal", true)
			if n := cut.Resumed(); n != len(ends)/2 {
				t.Fatalf("cut journal resumed %d records, want %d", n, len(ends)/2)
			}
			if got, _ := reduce(cut, 3); got != want {
				t.Fatalf("resumed run published %#x, want %#x", got, want)
			}
			st, err := os.Stat(filepath.Join(dir, "cut.journal"))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(len(image)) {
				t.Fatalf("resumed journal is %d bytes; the fleet's is %d", st.Size(), len(image))
			}
		})
	}
}

// sharedSeeds lists, per spec, every build seed (as an offset from the run
// seed) whose record families carry more than one series tag, with exactly
// those tags in sorted order. Series that share a seed draw from one
// stream, so their curves are correlated samples, not independent ones;
// each entry below is such a known correlation, left as it is because
// moving a seed changes figure bytes. Fixing one deletes its entry, and a
// new one fails checkSharedSeeds. The offsets hold at any run seed.
var sharedSeeds = map[string]map[uint64][]string{
	// seed+pi*100+m*10+kc maps (m, kc=10) and (m+1, no cutoff) of one
	// panel to one seed, and both series are CM, so their degree
	// sequences come from the same uniforms.
	"fig2": {
		20:  {"fig2a m=1 kc=10", "fig2a m=2 no kc"},
		30:  {"fig2a m=2 kc=10", "fig2a m=3 no kc"},
		120: {"fig2b m=1 kc=10", "fig2b m=2 no kc"},
		130: {"fig2b m=2 kc=10", "fig2b m=3 no kc"},
		220: {"fig2c m=1 kc=10", "fig2c m=2 no kc"},
		230: {"fig2c m=2 kc=10", "fig2c m=3 no kc"},
	},
	// The PA (a) and HAPA (c) m=1 panels use one offset per kc, and CM
	// m=1, gamma=3.0, kc=10 lands on PA and HAPA's kc=40.
	"fig9": {
		1010: {"fig9a: m=1, kc=10", "fig9c: m=1, kc=10"},
		1020: {"fig9a: m=1, kc=20", "fig9c: m=1, kc=20"},
		1040: {"fig9a: m=1, kc=40", "fig9b: m=1, gamma=3.0, kc=10", "fig9c: m=1, kc=40"},
		1060: {"fig9a: m=1, kc=60", "fig9c: m=1, kc=60"},
		1080: {"fig9a: m=1, kc=80", "fig9c: m=1, kc=80"},
		1100: {"fig9a: m=1, kc=100", "fig9c: m=1, kc=100"},
		1200: {"fig9a: m=1, kc=200", "fig9c: m=1, kc=200"},
	},
	"fig11": {
		1010: {"fig11a: m=1, kc=10", "fig11c: m=1, kc=10"},
		1020: {"fig11a: m=1, kc=20", "fig11c: m=1, kc=20"},
		1040: {"fig11a: m=1, kc=40", "fig11b: m=1, gamma=3.0, kc=10", "fig11c: m=1, kc=40"},
		1060: {"fig11a: m=1, kc=60", "fig11c: m=1, kc=60"},
		1080: {"fig11a: m=1, kc=80", "fig11c: m=1, kc=80"},
		1100: {"fig11a: m=1, kc=100", "fig11c: m=1, kc=100"},
		1200: {"fig11a: m=1, kc=200", "fig11c: m=1, kc=200"},
	},
	// seed+ri*1000+n: this pair meets at tinyScale's sizes only.
	"table1": {
		3200: {"table1 gamma in (2,3), m>=1 (CM 2.2): d ~ lnlnN N=3200", "table1 gamma>3 (CM 3.5, m=2): d ~ lnN N=200"},
	},
	// By design, not by accident: each DES spec sweeps all its knob series
	// on one build, so every knob is measured against identical
	// topologies, and the tag carries the knob into the journal key.
	"desflood": {
		0: {"desflood loss=10%", "desflood loss=2%", "desflood lossless"},
	},
	"deskwalk": {
		0: {"deskwalk k=1 loss=10%", "deskwalk k=1 loss=2%", "deskwalk k=1 lossless",
			"deskwalk k=16 loss=10%", "deskwalk k=16 loss=2%", "deskwalk k=16 lossless",
			"deskwalk k=4 loss=10%", "deskwalk k=4 loss=2%", "deskwalk k=4 lossless"},
	},
	"desfail": {
		0: {"desfail-kwalk fail=10%", "desfail-kwalk fail=20%", "desfail-kwalk fail=30%", "desfail-kwalk no failures",
			"desfail-link fail=10%", "desfail-link fail=20%", "desfail-link fail=30%", "desfail-link no failures",
			"desfail-node fail=10%", "desfail-node fail=20%", "desfail-node fail=30%", "desfail-node no failures"},
	},
}

// checkSharedSeeds fails on any build seed that carries more than one tag
// among a spec's claimed record families, unless sharedSeeds names exactly
// that tag set, and on any sharedSeeds entry the run no longer shows. It
// returns the spec's claimed build seeds.
func checkSharedSeeds(t *testing.T, spec string, seed uint64, claims map[journalClaimKey]string) map[uint64]bool {
	t.Helper()
	tags := map[uint64][]string{}
	for k, tag := range claims {
		if off := k.stream - seed; !slices.Contains(tags[off], tag) {
			tags[off] = append(tags[off], tag)
		}
	}
	claimed := make(map[uint64]bool, len(tags))
	for off, got := range tags {
		claimed[off] = true
		slices.Sort(got)
		want, listed := sharedSeeds[spec][off]
		switch {
		case len(got) > 1 && !listed:
			t.Errorf("%s: series %q share build seed +%d; give each its own seed", spec, got, off)
		case listed && !slices.Equal(got, want):
			t.Errorf("%s: build seed +%d carries series %q; sharedSeeds lists %q", spec, off, got, want)
		}
	}
	for off := range sharedSeeds[spec] {
		if !claimed[off] {
			t.Errorf("%s: sharedSeeds lists build seed +%d, which the spec no longer claims", spec, off)
		}
	}
	return claimed
}
