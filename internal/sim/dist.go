package sim

// Distributed-run surface of the journal (ROADMAP item 4): the
// coordinator/worker protocol in internal/coord streams exactly the
// journal's keyed slot records — (kind, engine-seed, tag-hash,
// realization) with CRC'd payloads — so this file exports the record
// shape, a self-checking binary codec reusing the journal's on-disk
// framing, and the coordinator-side Journal operations: idempotent
// first-writer-wins Accept, per-realization completion markers that
// survive a coordinator restart, and record counts for completion
// verification. InspectJournal is the read-only diagnostic behind
// `analyze journal`.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
)

// SlotRecord is one journal record in wire form: one realization's slot
// contribution to one sweep, identified by the payload family (kind), the
// sweep's engine seed (Stream), the FNV hash of its human-readable tag
// (Sub), and the realization index. The payload is the exact bits the
// journal would hold, so a record computed on any worker reduces
// bit-identically to one computed locally.
type SlotRecord struct {
	Kind        uint8
	Stream, Sub uint64
	Realization int
	Payload     []byte

	// frame is the journal frame the record was cut from — by the block
	// codec on a worker, by DecodeSlotRecord on a coordinator — of which
	// Payload is a sub-slice; see framed. A record a worker's sink receives
	// owns its frame until the sink calls Release, and for good if it never
	// does: the engine reuses a sweep's frame buffer for its next record
	// only once back is set, so a sink may retain records it does not
	// release. DecodeSlotRecord's record borrows the caller's bytes.
	frame []byte
	// back, when set, is the lending sweep's flag that Release raises.
	back *bool
}

// Release hands the record's frame back to the sweep that built it, which
// encodes its next record into the same buffer instead of a fresh one. A
// sink calls it once it is done with every byte of the record — after a
// transport that does not retain Data has sent it, say — and before it
// returns; the record must not be used afterwards. A sink that never calls
// it keeps the record for good. Release is a no-op on a record that was not
// lent (a build-only series' frame, a decoded or hand-built record).
func (rec SlotRecord) Release() {
	if rec.back != nil {
		*rec.back = true
	}
}

// Key renders the record's identity for logs and dedup diagnostics.
func (rec SlotRecord) Key() string {
	return fmt.Sprintf("(kind=%d, stream=%#x, sub=%#x, r=%d)", rec.Kind, rec.Stream, rec.Sub, rec.Realization)
}

func (rec SlotRecord) key() journalKey {
	return journalKey{kind: rec.Kind, stream: rec.Stream, sub: rec.Sub, r: rec.Realization}
}

// slotKind reports whether kind is a replayable slot-payload family (as
// opposed to the header, failure, or completion-marker bookkeeping kinds).
func slotKind(kind uint8) bool {
	switch kind {
	case recSweepSlots, recDegreeHist, recDESSlots:
		return true
	}
	return false
}

// framed returns the frame rec was cut from if it still describes rec: the
// exported fields are the record, so a caller that re-keyed it or swapped
// its Payload gets a fresh encoding instead.
func (rec SlotRecord) framed() []byte {
	f := rec.frame
	if len(f) != frameOverhead+len(rec.Payload) ||
		(len(rec.Payload) > 0 && &f[frameOverhead] != &rec.Payload[0]) ||
		decodeKey(f[frameHeaderLen:]) != rec.key() {
		return nil
	}
	return f
}

// MarshalBinary returns the record in the journal's on-disk framing —
// length prefix, CRC32 of the body, then key+payload — so the wire format
// IS the journal format and a received record is validated and appended
// without re-encoding. The result may share memory with Payload: read-only.
func (rec SlotRecord) MarshalBinary() []byte {
	if f := rec.framed(); f != nil {
		return f
	}
	return encodeFrame(rec.key(), rec.Payload)
}

// DecodeSlotRecord is the inverse of MarshalBinary. It validates the frame
// in place and rejects torn or corrupt ones (bad length, bad CRC), trailing
// garbage, and bookkeeping kinds, so a record that decodes is exactly a
// record the journal would accept. The record's Payload is a sub-slice of b.
func DecodeSlotRecord(b []byte) (SlotRecord, error) {
	k, payload, n, ok := parseFrame(b)
	if !ok {
		return SlotRecord{}, errors.New("sim: corrupt slot record (bad length or checksum)")
	}
	if n != len(b) {
		return SlotRecord{}, fmt.Errorf("sim: slot record carries %d trailing byte(s)", len(b)-n)
	}
	rec := SlotRecord{Kind: k.kind, Stream: k.stream, Sub: k.sub, Realization: k.r, Payload: payload, frame: b}
	if !slotKind(k.kind) {
		return SlotRecord{}, fmt.Errorf("sim: record %s is not a slot payload kind", rec.Key())
	}
	return rec, nil
}

// WorkloadFingerprint returns the journal header bytes for (spec, seed,
// scale): everything that determines an experiment's numbers and nothing
// that doesn't (scheduler knobs are excluded). The coordinator ships it
// with every lease and workers refuse leases whose fingerprint differs
// from what they compute from the shipped workload — a version- or
// configuration-skewed worker must fail loudly, never contribute
// subtly-different bits.
func WorkloadFingerprint(spec string, seed uint64, sc Scale) []byte {
	return encodeJournalHeader(spec, seed, sc)
}

// Accept applies one streamed record to the journal with first-writer-wins
// idempotence: a record whose key is already present — resumed from disk
// or accepted earlier this run — is dropped (fresh=false) so a slow
// stolen-from worker's late duplicate cannot double-append. A fresh record's
// frame is appended to the file as received (crash-safe under the usual
// batched-fsync contract) and indexed, so it is immediately replayable
// through the resume path. Only slot-payload kinds are accepted;
// bookkeeping kinds are rejected.
func (j *Journal) Accept(rec SlotRecord) (fresh bool, err error) {
	if j == nil {
		return false, errors.New("sim: Accept on nil journal")
	}
	if !slotKind(rec.Kind) {
		return false, fmt.Errorf("sim: record %s is not a slot payload kind", rec.Key())
	}
	if rec.Payload == nil {
		return false, fmt.Errorf("sim: record %s has no payload", rec.Key())
	}
	k := rec.key()
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.index[k]; dup {
		return false, nil
	}
	frame := rec.MarshalBinary()
	off, err := j.appendLocked(frame)
	if err != nil {
		return false, err
	}
	j.index[k] = recordLoc{off: off, size: len(frame)}
	if j.recCount == nil {
		j.recCount = map[int]int{}
	}
	j.recCount[rec.Realization]++
	return true, nil
}

// MarkRealizationDone journals a completion marker for realization r of
// this journal's spec: the coordinator writes it once a worker's completed
// lease verifies, and a restarted coordinator recovers the done set from
// these markers instead of guessing from record counts. Idempotent.
func (j *Journal) MarkRealizationDone(r int) error {
	if j == nil {
		return errors.New("sim: MarkRealizationDone on nil journal")
	}
	j.mu.Lock()
	if j.done == nil {
		j.done = map[int]bool{}
	}
	if j.done[r] {
		j.mu.Unlock()
		return nil
	}
	j.done[r] = true
	j.mu.Unlock()
	// The marker payload is a single version byte.
	return j.appendFrame(encodeFrame(journalKey{kind: recRealDone, r: r}, []byte{1}))
}

// DoneRealizations returns a copy of the realizations marked complete —
// written by MarkRealizationDone this run or recovered on resume.
func (j *Journal) DoneRealizations() map[int]bool {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]bool, len(j.done))
	for r := range j.done {
		out[r] = true
	}
	return out
}

// RecordCount reports how many distinct slot records the journal holds for
// realization r, across all sweeps of the spec — the coordinator checks a
// completing lease's streamed-record count against it, so a completion
// whose records were lost in transit is not marked done.
func (j *Journal) RecordCount(r int) int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recCount[r]
}

// JournalRecordInfo describes one record for diagnostics.
type JournalRecordInfo struct {
	Kind        uint8
	KindName    string
	Stream, Sub uint64
	Realization int
	PayloadLen  int
}

// JournalInfo is InspectJournal's report: decoded header fields, the
// record inventory, recovered bookkeeping, and torn-tail diagnostics.
type JournalInfo struct {
	Path    string
	Version uint64
	Spec    string
	Seed    uint64
	// Records lists every intact slot record in file order.
	Records []JournalRecordInfo
	// Done lists realizations with completion markers, ascending.
	Done []int
	// Failures are the recovered permanent-failure records.
	Failures []FailureRecord
	// GoodBytes is the clean prefix length; FileBytes the file size. They
	// differ exactly when the journal carries a torn tail.
	GoodBytes, FileBytes int64
}

// TornBytes reports how many trailing bytes fail validation (0 = clean).
func (info JournalInfo) TornBytes() int64 { return info.FileBytes - info.GoodBytes }

// KindName renders a record kind for humans.
func KindName(kind uint8) string {
	switch kind {
	case recHeader:
		return "header"
	case recSweepSlots:
		return "sweep-slots"
	case recDegreeHist:
		return "degree-hist"
	case recDESSlots:
		return "des-slots"
	case recRealDone:
		return "realization-done"
	case recFailure:
		return "failure"
	}
	return fmt.Sprintf("kind(%d)", kind)
}

// InspectJournal reads a journal file read-only — no truncation, no header
// expectations — and reports everything a distributed-run post-mortem
// needs: which spec/seed wrote it, which records and completion markers
// survived, and where the torn tail (if any) begins.
func InspectJournal(path string) (JournalInfo, error) {
	info := JournalInfo{Path: path}
	f, err := os.Open(path)
	if err != nil {
		return info, err
	}
	defer f.Close()
	sc, err := scanJournal(path, f, func(hdr []byte) error {
		if err := decodeJournalHeaderInto(&info, hdr); err != nil {
			return fmt.Errorf("sim: %s: %w", path, err)
		}
		return nil
	}, func(k journalKey, payloadLen int, _ recordLoc) {
		info.Records = append(info.Records, JournalRecordInfo{
			Kind: k.kind, KindName: KindName(k.kind),
			Stream: k.stream, Sub: k.sub, Realization: k.r,
			PayloadLen: payloadLen,
		})
	})
	info.GoodBytes, info.FileBytes, info.Failures = sc.good, sc.fileBytes, sc.failures
	for r := range sc.done {
		info.Done = append(info.Done, r)
	}
	sort.Ints(info.Done)
	return info, err
}

// decodeJournalHeaderInto inverts the identity-bearing prefix of
// encodeJournalHeader (version, seed, spec); the Scale fields that follow
// stay opaque fingerprint bytes — diagnostics never need them decoded,
// only compared.
func decodeJournalHeaderInto(info *JournalInfo, p []byte) error {
	if len(p) < 20 {
		return errors.New("journal header too short")
	}
	info.Version = binary.LittleEndian.Uint64(p[0:8])
	info.Seed = binary.LittleEndian.Uint64(p[8:16])
	n := int(binary.LittleEndian.Uint32(p[16:20]))
	if n < 0 || len(p) < 20+n {
		return errors.New("journal header spec field truncated")
	}
	info.Spec = string(p[20 : 20+n])
	return nil
}

// Budget-free copy of a Scale for the wire: the workload half determines
// the numbers; the parallelism budget is every worker's own business. Run
// never crosses the wire.
func (sc Scale) WorkloadOnly() Scale {
	sc.Workers = 0
	sc.Run = nil
	return sc
}
