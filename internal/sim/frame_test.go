package sim

// Tests for the record frame as the one serialisation a record gets: its
// bytes are pinned to what the previous encoder wrote, journals written
// before the single-buffer encode and the offset index still resume, a
// length prefix that lies allocates nothing, and the append and replay
// paths stay within their allocation budgets.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"scalefree/internal/gen"
)

// TestFrameGoldenBytes pins the frame layout — [u32 len][u32 CRC][21 B key]
// [payload], journalVersion 3 — to bytes captured from encodeRecord over
// encodeRowBlock/encodeHistogram at commit ceb98bb, the last one that
// assembled a frame from separate payload, body and record buffers.
func TestFrameGoldenBytes(t *testing.T) {
	t.Parallel()
	rowKey := journalKey{kind: recSweepSlots, stream: 0x0123456789abcdef, sub: 0xfedcba9876543210, r: 7}
	rows := [][]float64{{1.5, math.Copysign(0, -1), 5e-324}, {math.Inf(1), -2.25, 1e300}}
	histKey := journalKey{kind: recDegreeHist, stream: 99, sub: 5, r: 1}
	for _, c := range []struct {
		name  string
		key   journalKey
		frame []byte
		want  string
	}{
		{"rows", rowKey, encodeRowBlock(rowKey, rows, 3),
			"4d0000005b46dd1e01efcdab89674523011032547698badcfe070000000200000003000000000000000000f83f00000000000000800100000000000000000000000000f07f00000000000002c09c7500883ce4377e"},
		{"histogram", histKey, encodeHistogram(histKey, []int{0, 3, 1, 0, 7}),
			"41000000f41dc3e80263000000000000000500000000000000010000000500000000000000000000000300000000000000010000000000000000000000000000000700000000000000"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("%s frame = %s, want %s", c.name, got, c.want)
		}
		k, payload, size, ok := parseFrame(c.frame)
		if !ok || k != c.key || size != len(c.frame) {
			t.Fatalf("%s: parseFrame = (%+v, size %d, ok=%v)", c.name, k, size, ok)
		}
		if again := encodeFrame(c.key, payload); !bytes.Equal(again, c.frame) {
			t.Errorf("%s: encodeFrame of the payload differs from the codec's frame", c.name)
		}
	}
}

// TestParentWrittenJournalsResume resumes journals written by earlier
// versions at tinyScale, seed 12345: fig1a, desflood and attack at commit
// ceb98bb (one spec per record kind — degree histograms, DES slots,
// variable-length sweep rows), fig9 and messaging at commit 1391c51 (the
// search series' tags, seeds and fused NF+RW curves). Every record must be
// found through the offset index and replay to the golden figure bytes,
// with nothing recomputed: the file is byte-identical after the run.
func TestParentWrittenJournalsResume(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig1a", "desflood", "attack", "fig9", "messaging"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			image, err := os.ReadFile(filepath.Join("testdata", "parent_"+id+".journal"))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), id+".journal")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			spec, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, id, 12345, tinyScale, true)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(recordEnds(t, image)) - 1; j.Resumed() != want {
				t.Fatalf("resumed %d records, the fixture holds %d", j.Resumed(), want)
			}
			sc := tinyScale
			sc.Run = NewRunControl(context.Background(), 0, 0, j)
			figs, err := spec.Run(sc, 12345)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := figuresDigest(t, figs); got != specDigests[id] {
				t.Fatalf("resumed run published %#x, want %#x", got, specDigests[id])
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, image) {
				t.Fatalf("resume rewrote the journal (%d → %d bytes, err %v): a record was not replayed", len(image), len(after), err)
			}
		})
	}
}

// allocated reports the bytes fn allocates. Not for parallel tests.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingLengthPrefixAllocatesNothing: a torn tail whose length prefix
// claims 60 MiB — under the record bound, far over what the file holds —
// must not size a buffer, on any of the three paths that parse frames.
func TestLyingLengthPrefixAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, err := OpenJournal(path, "fig9", 2007, tinyScale, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendFrame(encodeRowBlock(journalKey{kind: recSweepSlots, stream: 1}, [][]float64{{1, 2}}, 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lie := binary.LittleEndian.AppendUint32(nil, 60<<20)
	lie = append(lie, "torn after a few bytes"...)
	if err := os.WriteFile(path, append(append([]byte{}, clean...), lie...), 0o644); err != nil {
		t.Fatal(err)
	}
	const budget = 256 << 10 // the scan's bufio and small change, nowhere near 60 MiB
	if n := allocated(func() {
		if info, err := InspectJournal(path); err != nil || info.TornBytes() != int64(len(lie)) || len(info.Records) != 1 {
			t.Errorf("InspectJournal = %+v, %v", info, err)
		}
	}); n > budget {
		t.Errorf("InspectJournal allocated %d B on a lying prefix", n)
	}
	if n := allocated(func() {
		j, err := OpenJournal(path, "fig9", 2007, tinyScale, true)
		if err != nil || j.Resumed() != 1 {
			t.Errorf("OpenJournal(resume) = %v, resumed %d", err, j.Resumed())
		}
		j.Close()
	}); n > budget {
		t.Errorf("OpenJournal(resume) allocated %d B on a lying prefix", n)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(clean)) {
		t.Fatalf("torn tail not truncated to the clean prefix: %v, %v", st.Size(), err)
	}
	if n := allocated(func() {
		if _, err := DecodeSlotRecord(lie); err == nil {
			t.Error("DecodeSlotRecord accepted a frame shorter than its prefix claims")
		}
	}); n > 1024 {
		t.Errorf("DecodeSlotRecord allocated %d B on a lying prefix", n)
	}
}

// TestRecordPathAllocs pins the allocation budget of the record paths: a
// local journalAppend of a block encoded into a warm, reused frame buffer —
// what a sweep worker does — allocates nothing (not a frame, a payload, a
// body or a record copy of it), a worker's sink gets the codec's own fresh
// buffer, and replay through the offset index allocates nothing once its
// read buffer is warm.
func TestRecordPathAllocs(t *testing.T) {
	const nRows, rowLen, records = 110, 93, 16
	rows := make([][]float64, nRows)
	for i := range rows {
		rows[i] = make([]float64, rowLen)
		for c := range rows[i] {
			rows[i][c] = float64(i*rowLen + c)
		}
	}
	codec := rowBlocks(recSweepSlots, nRows, rowLen)
	key := func(r int) journalKey { return journalKey{kind: recSweepSlots, stream: 7, sub: 9, r: r} }
	path := filepath.Join(t.TempDir(), "a.journal")
	j, err := OpenJournal(path, "fig7", 2007, tinyScale, false)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRunControl(context.Background(), 0, 0, j)
	buf := codec.encode(nil, key(0), rows)
	if n := allocated(func() {
		for r := 0; r < records; r++ {
			buf = codec.encode(buf, key(r), rows)
			rc.journalAppend(buf, nil)
		}
	}) / records; n > 64 {
		t.Errorf("journalAppend of a %d B block from a warm frame buffer allocates %d B, want ~0", nRows*rowLen*8, n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got SlotRecord
	wrc := NewWorkerRunControl(context.Background(), 0, 0, func(rec SlotRecord) { got = rec })
	frame := codec.encode(nil, key(0), rows)
	if n := allocated(func() { wrc.journalAppend(frame, nil) }); n > 512 {
		t.Errorf("the worker sink path allocates %d B beyond the codec's frame", n)
	}
	if wire := got.MarshalBinary(); &wire[0] != &frame[0] || got.key() != key(0) {
		t.Error("the sink's record does not marshal to the codec's own frame buffer")
	}

	j, err = OpenJournal(path, "fig7", 2007, tinyScale, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rc = NewRunControl(context.Background(), 0, 0, j)
	var sum byte
	use := func(p []byte) { sum += p[len(p)-1] }
	if !rc.journalPayload(key(0), use) {
		t.Fatal("record 0 not replayable")
	}
	r := 0
	if allocs := testing.AllocsPerRun(records-1, func() {
		r++
		if !rc.journalPayload(key(r%records), use) {
			t.Fatalf("record %d not replayable", r%records)
		}
	}); allocs > 0 {
		t.Errorf("replay allocates %v/record after warm-up", allocs)
	}
}

// TestSeriesAllocsPerRealization: a journaled sweep series keeps one block
// per sweep worker, in that sweeper's reused buffers, and only a mean row
// per realization, so what each extra realization allocates — its
// topology, its mean row, engine bookkeeping — stays below one block's
// slab. Allocating a slab, a frame and row headers per realization, as the
// engine did before, costs over twice that. Not parallel: it reads
// process-wide allocation counters.
func TestSeriesAllocsPerRealization(t *testing.T) {
	const sources, maxTTL = 400, 20
	slab := int64(sources * (maxTTL + 1) * 8)
	factory := paTopo(100, 2, gen.NoCutoff)
	run := func(realizations int) int64 {
		t.Helper()
		sc := Scale{NSearch: 100, Realizations: realizations, Sources: sources, MaxTTLFlood: maxTTL, Workers: 1}
		j, err := OpenJournal(filepath.Join(t.TempDir(), "s.journal"), "fig", 7, sc, false)
		if err != nil {
			t.Fatal(err)
		}
		sc.Run = NewRunControl(context.Background(), 0, 0, j)
		n := allocated(func() { _, err = searchSeries("fl", factory, searchCfg{sc: sc, alg: algFL, maxTTL: maxTTL}, 7) })
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return int64(n)
	}
	run(4) // the first series' sweeper grows its buffers; later ones reuse them
	small, large := run(4), run(16)
	if per := (large - small) / 12; per >= slab {
		t.Errorf("each extra realization allocates %d B, one block's slab is %d B", per, slab)
	} else {
		t.Logf("each extra realization allocates %d B (slab %d B)", per, slab)
	}
}

// TestSnapshotAllocsPerRealization: a retired snapshot goes back to the
// lane pool and a later build refills its arrays, so once a warm-up batch
// has put snapshots in circulation, what each extra realization allocates
// stays below one snapshot's arrays, (N+1+2M)·4 B — which every
// realization allocated when each build froze into fresh arrays. A search
// series retires each snapshot after its sweep; a degree batch's build
// hands its snapshot back itself once the histogram is read. PA freezes
// its grown graph on the lane's arena and CM finalizes into it.
// Not parallel: it reads process-wide allocation counters.
func TestSnapshotAllocsPerRealization(t *testing.T) {
	const n, sources, maxTTL = 20000, 8, 4
	sweep := func(name string, factory topoFactory) func(Scale) error {
		return func(sc Scale) error {
			_, err := searchSeries(name, factory, searchCfg{sc: sc, alg: algFL, maxTTL: maxTTL}, 7)
			return err
		}
	}
	degrees := func(name string, factory topoFactory) func(Scale) error {
		return func(sc Scale) error {
			_, err := mergedDegreeDists(sc, degreeRun{tag: name, label: name, factory: factory, seed: 7})
			return err
		}
	}
	pa, cm := paTopo(n, 2, gen.NoCutoff), cmTopo(n, 2, gen.NoCutoff, 2.2)
	for _, c := range []struct {
		name    string
		factory topoFactory
		batch   func(Scale) error
	}{
		{"PA", pa, sweep("PA", pa)},
		{"CM", cm, sweep("CM", cm)},
		{"PA degrees", pa, degrees("PA degrees", pa)},
	} {
		f, err := c.factory(0, newBuilder(7, 0, nil, 1, nil))
		if err != nil {
			t.Fatal(err)
		}
		snapshot := int64(4 * (f.N() + 1 + f.TotalDegree()))
		run := func(realizations int) int64 {
			t.Helper()
			sc := Scale{NSearch: n, Realizations: realizations, Sources: sources, MaxTTLFlood: maxTTL, Workers: 1}
			bytes := allocated(func() { err = c.batch(sc) })
			if err != nil {
				t.Fatal(err)
			}
			return int64(bytes)
		}
		run(4) // puts the batch's snapshots in circulation
		small, large := run(4), run(16)
		if per := (large - small) / 12; per >= snapshot {
			t.Errorf("%s: each extra realization allocates %d B, one snapshot's arrays are %d B", c.name, per, snapshot)
		} else {
			t.Logf("%s: each extra realization allocates %d B (snapshot %d B)", c.name, per, snapshot)
		}
	}
}
