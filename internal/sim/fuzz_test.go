package sim

// Fuzz targets for the bytes the journal reads back from disk, the record
// frames a coordinator takes off the network, and the workload a lease
// carries to a worker. Seed corpora live under testdata/fuzz/: the
// parent-written fixture journals and real record frames, whole, truncated
// and with single bits flipped, and the presets and edge values of Scale.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadJournal feeds arbitrary file bytes to both journal readers. They
// must never panic; InspectJournal must not touch the file; and a resume
// that succeeds must have truncated the file to a prefix of what it was
// given — the same prefix InspectJournal called clean, holding the same
// failure records — that re-opens with the same records and markers and is
// left byte-identical the second time.
func FuzzLoadJournal(f *testing.F) {
	image, err := os.ReadFile(filepath.Join("testdata", "parent_fig1a.journal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	f.Add(image[:len(image)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, image []byte) {
		path := filepath.Join(t.TempDir(), "f.journal")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		info, ierr := InspectJournal(path)
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, image) {
			t.Fatalf("InspectJournal changed the file (err %v)", err)
		}
		j, err := OpenJournal(path, "fig1a", 12345, tinyScale, true)
		if err != nil {
			if now, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(now, image) {
				t.Fatalf("a refused resume (%v) changed the file", err)
			}
			return
		}
		if ierr != nil {
			t.Fatalf("resume accepted a journal InspectJournal refuses: %v", ierr)
		}
		resumed, done := j.Resumed(), j.DoneRealizations()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed != distinctKeys(info.Records) || len(done) != len(info.Done) {
			t.Fatalf("resume found %d records, %d markers; InspectJournal %d, %d",
				resumed, len(done), distinctKeys(info.Records), len(info.Done))
		}
		prefix, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(image, prefix) || int64(len(prefix)) != info.GoodBytes {
			t.Fatalf("resume left %d bytes, InspectJournal's clean prefix is %d of %d", len(prefix), info.GoodBytes, len(image))
		}
		if after, err := InspectJournal(path); err != nil || !reflect.DeepEqual(after.Failures, info.Failures) {
			t.Fatalf("the truncated journal holds failure records %+v, the image %+v (err %v)", after.Failures, info.Failures, err)
		}
		j2, err := OpenJournal(path, "fig1a", 12345, tinyScale, true)
		if err != nil {
			t.Fatalf("the truncated journal does not re-open: %v", err)
		}
		if j2.Resumed() != resumed || !reflect.DeepEqual(j2.DoneRealizations(), done) {
			t.Fatal("the truncated journal re-opens with different contents")
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, prefix) {
			t.Fatalf("re-opening a clean journal changed it (err %v)", err)
		}
	})
}

func distinctKeys(recs []JournalRecordInfo) int {
	keys := map[journalKey]bool{}
	for _, r := range recs {
		keys[journalKey{kind: r.Kind, stream: r.Stream, sub: r.Sub, r: r.Realization}] = true
	}
	return len(keys)
}

// FuzzDecodeSlotRecord feeds arbitrary bytes to the frame decoder. It must
// never panic, and whatever it accepts must be exactly one canonical frame
// of a slot kind: re-marshalling returns the input itself, encoding the
// decoded fields afresh reproduces it byte for byte, and a journal takes it.
func FuzzDecodeSlotRecord(f *testing.F) {
	f.Add(encodeRowBlock(journalKey{kind: recSweepSlots, stream: 7, sub: 11, r: 1}, [][]float64{{1, 2.5}, {-3, 4}}, 2))
	f.Add(encodeHistogram(journalKey{kind: recDegreeHist, stream: 7, r: 2}, []int{0, 5, 9, 2}))
	f.Add(encodeFrame(journalKey{kind: recRealDone, r: 3}, []byte{1}))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "f.journal")
	j, err := OpenJournal(path, "fuzz", 1, tinyScale, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { j.Close() })
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeSlotRecord(b)
		if err != nil {
			return
		}
		if !slotKind(rec.Kind) || len(b) != frameOverhead+len(rec.Payload) {
			t.Fatalf("accepted %s from %d bytes", rec.Key(), len(b))
		}
		if wire := rec.MarshalBinary(); &wire[0] != &b[0] || len(wire) != len(b) {
			t.Fatal("MarshalBinary of a decoded record is not the decoded bytes")
		}
		if fresh := encodeFrame(rec.key(), rec.Payload); !bytes.Equal(fresh, b) {
			t.Fatal("accepted a frame that is not the canonical encoding of its fields")
		}
		before := j.Resumed()
		isNew, err := j.Accept(rec)
		if grew := j.Resumed() - before; err != nil || (isNew && grew != 1) || (!isNew && grew != 0) {
			t.Fatalf("Accept of a decoded record = (%v, %v), index grew by %d", isNew, err, grew)
		}
		if p, ok := j.payloadOf(rec.key()); !ok || (isNew && !bytes.Equal(p, rec.Payload)) {
			t.Fatalf("accepted record %s does not replay (found=%v)", rec.Key(), ok)
		}
	})
}

// FuzzScaleValidate: Validate never panics, and a Scale it accepts
// crosses the wire intact — the JSON round trip of WorkloadOnly that a
// lease makes yields the same WorkloadFingerprint, which is what a
// worker's fingerprint check relies on.
func FuzzScaleValidate(f *testing.F) {
	add := func(sc Scale) {
		f.Add(sc.NDegree, sc.NSearch, sc.NSubstrate, sc.NOverlay, sc.Realizations, sc.Sources,
			sc.MaxTTLFlood, sc.MaxTTLNF, sc.Workers, sc.BCPivots, sc.PathLandmarks, sc.PathPairs, sc.WalkCap,
			sc.DESLatencyBase, sc.DESLatencyJitter, sc.DESLoss, sc.DESFailFrac, sc.DESFailMTBF)
	}
	add(Scale{})
	add(SmokeScale)
	add(XLScale)
	add(Scale{Sources: -1, DESLoss: math.Nextafter(1, 0), DESFailMTBF: math.MaxFloat64})
	f.Fuzz(func(t *testing.T, nDegree, nSearch, nSubstrate, nOverlay, realizations, sources,
		ttlFlood, ttlNF, workers, bcPivots, landmarks, pairs, walkCap int,
		latBase, latJitter, loss, failFrac, failMTBF float64) {
		sc := Scale{
			NDegree: nDegree, NSearch: nSearch, NSubstrate: nSubstrate, NOverlay: nOverlay,
			Realizations: realizations, Sources: sources, MaxTTLFlood: ttlFlood, MaxTTLNF: ttlNF,
			Workers: workers, BCPivots: bcPivots, PathLandmarks: landmarks, PathPairs: pairs, WalkCap: walkCap,
			DESLatencyBase: latBase, DESLatencyJitter: latJitter, DESLoss: loss,
			DESFailFrac: failFrac, DESFailMTBF: failMTBF,
		}
		if sc.Validate() != nil {
			return
		}
		wire, err := json.Marshal(sc.WorkloadOnly())
		if err != nil {
			t.Fatalf("accepted workload %+v does not marshal: %v", sc, err)
		}
		var back Scale
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("accepted workload %+v does not unmarshal: %v", sc, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round trip of %+v made it invalid: %v", sc, err)
		}
		if want, got := WorkloadFingerprint("fig9", 2007, sc), WorkloadFingerprint("fig9", 2007, back); !bytes.Equal(want, got) {
			t.Fatalf("round trip of %+v changed the fingerprint", sc)
		}
	})
}
