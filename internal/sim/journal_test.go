package sim

// Tests for the PR 8 tentpole's journal: record codec round-trips, header
// validation, torn-tail truncation, and — the acceptance criterion — that
// a run resumed from a truncated journal reproduces the uninterrupted
// run's series bit-for-bit under different scheduler knobs, while
// actually skipping the journaled realizations.

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

func testScaleTiny() Scale {
	return Scale{
		NDegree: 1_500, NSearch: 400, NSubstrate: 800, NOverlay: 400,
		Realizations: 3, Sources: 4, MaxTTLFlood: 6, MaxTTLNF: 4,
	}
}

// payloadOf copies out the payload journaled under k.
func (j *Journal) payloadOf(k journalKey) ([]byte, bool) {
	var p []byte
	ok := j.replay(k, func(b []byte) { p = append([]byte{}, b...) })
	return p, ok
}

// rowPayload and histPayload are the payload bytes of the block encoders'
// frames, for records the tests assemble by hand.
// encodeRowBlock and encodeHistogram frame a record in a fresh buffer.
func encodeRowBlock(k journalKey, rows [][]float64, rowLen int) []byte {
	return appendRowBlock(nil, k, rows, rowLen)
}

func encodeHistogram(k journalKey, hist []int) []byte { return appendHistogram(nil, k, hist) }

func rowPayload(rows [][]float64, rowLen int) []byte {
	return encodeRowBlock(journalKey{}, rows, rowLen)[frameOverhead:]
}

func histPayload(hist []int) []byte {
	return encodeHistogram(journalKey{}, hist)[frameOverhead:]
}

func TestJournalRoundTrip(t *testing.T) {
	sc := testScaleTiny()
	path := filepath.Join(t.TempDir(), "fig9.journal")
	j, err := OpenJournal(path, "fig9", 2007, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{1, 2.5, -3}, {0, 4, 5e-9}}
	if err := j.appendFrame(encodeFrame(journalKey{kind: recSweepSlots, stream: 7, sub: 11, r: 1}, rowPayload(rows, 3))); err != nil {
		t.Fatal(err)
	}
	hist := []int{0, 5, 9, 2}
	if err := j.appendFrame(encodeFrame(journalKey{kind: recDegreeHist, stream: 7, r: 2}, histPayload(hist))); err != nil {
		t.Fatal(err)
	}
	fr := FailureRecord{Stream: 7, Realization: 0, Attempts: 2, Err: "boom", Stack: "stack trace"}
	if err := j.appendFrame(encodeFrame(journalKey{kind: recFailure, stream: 7, r: 0}, encodeFailure(fr))); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "fig9", 2007, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Resumed(); got != 2 {
		t.Fatalf("Resumed() = %d, want 2", got)
	}
	p, ok := j2.payloadOf(journalKey{kind: recSweepSlots, stream: 7, sub: 11, r: 1})
	if !ok {
		t.Fatal("sweep record not resumed")
	}
	gotRows, ok := decodeRowBlock(p, 2, 3)
	if !ok || !reflect.DeepEqual(gotRows, rows) {
		t.Fatalf("decodeRowBlock = %v (ok=%v), want %v", gotRows, ok, rows)
	}
	if _, ok := j2.payloadOf(journalKey{kind: recSweepSlots, stream: 7, sub: 12, r: 1}); ok {
		t.Fatal("record found under wrong sub tag")
	}
	ph, ok := j2.payloadOf(journalKey{kind: recDegreeHist, stream: 7, r: 2})
	if !ok {
		t.Fatal("histogram record not resumed")
	}
	gotHist, ok := decodeHistogram(ph)
	if !ok || !reflect.DeepEqual(gotHist, hist) {
		t.Fatalf("decodeHistogram = %v (ok=%v), want %v", gotHist, ok, hist)
	}
	info, err := InspectJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if frs := info.Failures; len(frs) != 1 || frs[0] != fr {
		t.Fatalf("InspectJournal(%s).Failures = %+v, want [%+v]", path, frs, fr)
	}
}

// TestDecodeRowMeansMatchesMeanCurves: reducing a journaled block straight
// from its bytes yields, bit for bit, what meanCurves makes of the block —
// the property that lets replay skip decoding — and a payload of another
// shape is refused.
func TestDecodeRowMeansMatchesMeanCurves(t *testing.T) {
	t.Parallel()
	const nCurves, sources, rowLen = 3, 7, 5
	rng := xrand.New(5)
	rows := make([][]float64, nCurves*sources)
	for i := range rows {
		rows[i] = make([]float64, rowLen)
		for c := range rows[i] {
			rows[i][c] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-15))
		}
	}
	rows[0][1], rows[9][2] = math.Copysign(0, -1), math.Inf(1)
	p := rowPayload(rows, rowLen)
	got, ok := decodeRowMeans(p, nCurves, sources, rowLen)
	want := meanCurves(rows, nCurves)
	if !ok || len(got) != nCurves {
		t.Fatalf("decodeRowMeans = %v, ok=%v", got, ok)
	}
	for c := range want {
		for i := range want[c] {
			if math.Float64bits(got[c][i]) != math.Float64bits(want[c][i]) {
				t.Fatalf("curve %d point %d: %v from the bytes, %v from the block", c, i, got[c][i], want[c][i])
			}
		}
	}
	if _, ok := decodeRowMeans(p, nCurves, sources+1, rowLen); ok {
		t.Fatal("a payload of another shape was reduced")
	}
}

func TestJournalHeaderMismatch(t *testing.T) {
	sc := testScaleTiny()
	path := filepath.Join(t.TempDir(), "x.journal")
	j, err := OpenJournal(path, "fig9", 2007, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := OpenJournal(path, "fig10", 2007, sc, true); err == nil {
		t.Fatal("resume with a different spec did not fail")
	}
	if _, err := OpenJournal(path, "fig9", 2008, sc, true); err == nil {
		t.Fatal("resume with a different seed did not fail")
	}
	sc2 := sc
	sc2.Realizations++
	if _, err := OpenJournal(path, "fig9", 2007, sc2, true); err == nil {
		t.Fatal("resume with a different scale did not fail")
	}
	// The parallelism budget is deliberately NOT pinned: resuming with
	// different parallelism must work (output is scheduler-independent).
	sc3 := sc
	sc3.Workers = 7
	j3, err := OpenJournal(path, "fig9", 2007, sc3, true)
	if err != nil {
		t.Fatalf("resume with a different parallelism budget failed: %v", err)
	}
	j3.Close()
}

func TestJournalTornTailTruncated(t *testing.T) {
	sc := testScaleTiny()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.journal")
	j, err := OpenJournal(path, "fig9", 2007, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if err := j.appendFrame(encodeFrame(journalKey{kind: recSweepSlots, stream: 1, r: r}, rowPayload([][]float64{{float64(r)}}, 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Chop into the middle of the last record, then smear garbage after
	// the cut — both a short tail and a corrupt one must recover the
	// 2-record prefix and truncate the rest.
	torn := append(append([]byte{}, full[:len(full)-5]...), []byte("garbage!")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, "fig9", 2007, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Resumed(); got != 2 {
		t.Fatalf("Resumed() after torn tail = %d, want 2", got)
	}
	// Appends after recovery must extend the clean prefix.
	if err := j2.appendFrame(encodeFrame(journalKey{kind: recSweepSlots, stream: 1, r: 2}, rowPayload([][]float64{{2}}, 1))); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path, "fig9", 2007, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.Resumed(); got != 3 {
		t.Fatalf("Resumed() after repair = %d, want 3", got)
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, full) {
		t.Fatal("repaired journal differs from the uninterrupted one")
	}
}

func TestJournalNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.journal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, "fig9", 2007, testScaleTiny(), true); err == nil {
		t.Fatal("resume from a non-journal file did not fail")
	}
}

// countingFactory wraps a factory and counts invocations, proving resume
// really skips journaled realizations instead of recomputing them.
func countingFactory(inner topoFactory, n *atomic.Int64) topoFactory {
	return func(r int, b *builder) (*graph.Frozen, error) {
		n.Add(1)
		return inner(r, b)
	}
}

// mergedDegreeDist is mergedDegreeDists for one series.
func mergedDegreeDist(tag string, factory topoFactory, sc Scale, seed uint64) (stats.DegreeDist, error) {
	d, err := mergedDegreeDists(sc, degreeRun{tag: tag, factory: factory, seed: seed})
	if err != nil {
		return stats.DegreeDist{}, err
	}
	return d[0], nil
}

// TestSweepSeriesResumeBitIdentical is the tentpole acceptance test at
// the helper level: a journaled searchSeries run, killed by truncating its
// journal mid-record, resumed under several different parallelism
// budgets, must reproduce the uninterrupted series bit-for-bit while
// skipping every journaled realization.
func TestSweepSeriesResumeBitIdentical(t *testing.T) {
	sc := testScaleTiny()
	const seed, label = 2007, "fl"
	factory := paTopo(sc.NSearch, 2, gen.NoCutoff)
	cfg := searchCfg{alg: algFL, maxTTL: sc.MaxTTLFlood, sc: Scale{Sources: sc.Sources, Realizations: sc.Realizations}}

	baseline, err := searchSeries(label, factory, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}

	// Full journaled run: identical output, journal fully populated.
	dir := t.TempDir()
	path := filepath.Join(dir, "full.journal")
	j, err := OpenJournal(path, "fig", seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	jcfg := cfg
	jcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j)
	journaled, err := searchSeries(label, factory, jcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journaled, baseline) {
		t.Fatal("journaling perturbed the series")
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-write: keep the header and a prefix of the
	// records, tear the next one in half.
	torn := full[:len(full)-30]
	for _, workers := range []int{1, 2, 4} {
		resumePath := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(resumePath, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(resumePath, "fig", seed, sc, true)
		if err != nil {
			t.Fatal(err)
		}
		replayed := j2.Resumed()
		if replayed == 0 || replayed >= sc.Realizations {
			t.Fatalf("torn journal resumed %d records, want in (0, %d)", replayed, sc.Realizations)
		}
		var builds atomic.Int64
		rcfg := cfg
		rcfg.sc.Workers = workers
		rcfg.sc.Run = NewRunControl(context.Background(), 0, 0, j2)
		resumed, err := searchSeries(label, countingFactory(factory, &builds), rcfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, baseline) {
			t.Fatalf("resumed series differs from baseline at Workers=%d", workers)
		}
		if got, want := builds.Load(), int64(sc.Realizations-replayed); got != want {
			t.Fatalf("resume rebuilt %d realizations, want %d (replayed %d)", got, want, replayed)
		}
	}
}

// TestMergedDegreeDistResume pins the same property for the degree specs'
// histogram records.
func TestMergedDegreeDistResume(t *testing.T) {
	sc := testScaleTiny()
	const seed = 99
	factory := paTopo(sc.NDegree, 2, gen.NoCutoff)

	baseline, err := mergedDegreeDist("tag", factory, sc, seed)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "deg.journal")
	j, err := OpenJournal(path, "fig1a", seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	jsc := sc
	jsc.Run = NewRunControl(context.Background(), 0, 0, j)
	journaled, err := mergedDegreeDist("tag", factory, jsc, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journaled, baseline) {
		t.Fatal("journaling perturbed the merged distribution")
	}

	j2, err := OpenJournal(path, "fig1a", seed, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Resumed(); got != sc.Realizations {
		t.Fatalf("Resumed() = %d, want %d", got, sc.Realizations)
	}
	var builds atomic.Int64
	rsc := sc
	rsc.Workers = 2
	rsc.Run = NewRunControl(context.Background(), 0, 0, j2)
	resumed, err := mergedDegreeDist("tag", countingFactory(factory, &builds), rsc, seed)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !reflect.DeepEqual(resumed, baseline) {
		t.Fatal("resumed merged distribution differs from baseline")
	}
	if builds.Load() != 0 {
		t.Fatalf("fully journaled resume still built %d topologies", builds.Load())
	}
	// A different tag must NOT replay these records: the tag is what keeps
	// seed-sharing sweeps apart in the journal.
	j3, err := OpenJournal(path, "fig1a", seed, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt atomic.Int64
	osc := sc
	osc.Run = NewRunControl(context.Background(), 0, 0, j3)
	if _, err := mergedDegreeDist("othertag", countingFactory(factory, &rebuilt), osc, seed); err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if rebuilt.Load() != int64(sc.Realizations) {
		t.Fatalf("different tag replayed journaled records: built %d, want %d", rebuilt.Load(), sc.Realizations)
	}
}

// TestJournalKeyCollisionRejected pins the guard that found the fig9
// bug: two series checkpointing under the same (seed, label) — as the
// PA and HAPA m=1 panels did — must fail loudly on the FIRST
// checkpointed run, while a panel tag keeps them apart and resumable.
func TestJournalKeyCollisionRejected(t *testing.T) {
	t.Parallel()
	const seed = 555
	sc := testScaleTiny()
	path := filepath.Join(t.TempDir(), "collide.journal")
	j, err := OpenJournal(path, "collide", seed, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rc := NewRunControl(context.Background(), 0, 0, j)
	cfg := searchCfg{alg: algFL, maxTTL: 4, sc: Scale{Sources: 2, Realizations: 2, Run: rc}}
	pa := paTopo(400, 2, gen.NoCutoff)

	if _, err := searchSeries("m=1, kc=10", pa, cfg, seed); err != nil {
		t.Fatal(err)
	}
	// Same seed, same label, no tag: the collision the guard exists for.
	if _, err := searchSeries("m=1, kc=10", hapaTopo(400, 2, gen.NoCutoff), cfg, seed); err == nil {
		t.Fatal("colliding journal keys were not rejected")
	} else if !strings.Contains(err.Error(), "collision") {
		t.Fatalf("error %q does not name the collision", err)
	}
	// Distinct panel tags keep the keys apart.
	figXa, figXc := cfg, cfg
	figXa.tag, figXc.tag = "figXa", "figXc"
	if _, err := searchSeries("m=1, kc=10", pa, figXa, seed); err != nil {
		t.Fatalf("tagged series collided: %v", err)
	}
	if _, err := searchSeries("m=1, kc=10", hapaTopo(400, 2, gen.NoCutoff), figXc, seed); err != nil {
		t.Fatalf("tagged series collided: %v", err)
	}

	// A worker streaming records to a sink runs the same guard: colliding
	// series would be indistinguishable on the coordinator too.
	cfg.sc.Run = NewWorkerRunControl(context.Background(), 0, 0, func(SlotRecord) {})
	if _, err := searchSeries("m=1, kc=10", pa, cfg, seed); err != nil {
		t.Fatal(err)
	}
	if _, err := searchSeries("m=1, kc=10", hapaTopo(400, 2, gen.NoCutoff), cfg, seed); err == nil {
		t.Fatal("colliding keys were not rejected in worker-sink mode")
	} else if !strings.Contains(err.Error(), "collision") {
		t.Fatalf("worker-sink error %q does not name the collision", err)
	}
}
