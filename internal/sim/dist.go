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
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
}

// Key renders the record's identity for logs and dedup diagnostics.
func (rec SlotRecord) Key() string {
	return fmt.Sprintf("(kind=%d, stream=%#x, sub=%#x, r=%d)", rec.Kind, rec.Stream, rec.Sub, rec.Realization)
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

// MarshalBinary encodes the record in the journal's on-disk framing —
// length prefix, CRC32 of the body, then key+payload — so the wire format
// IS the journal format and a received record can be validated and
// appended without re-encoding.
func (rec SlotRecord) MarshalBinary() []byte {
	return encodeRecord(journalKey{kind: rec.Kind, stream: rec.Stream, sub: rec.Sub, r: rec.Realization}, rec.Payload)
}

// DecodeSlotRecord is the inverse of MarshalBinary. It rejects torn or
// corrupt frames (bad length, bad CRC) and trailing garbage, so a record
// that decodes is exactly a record the journal would accept.
func DecodeSlotRecord(b []byte) (SlotRecord, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	k, payload, n, ok := readRecord(br)
	if !ok {
		return SlotRecord{}, errors.New("sim: corrupt slot record (bad length or checksum)")
	}
	if int(n) != len(b) {
		return SlotRecord{}, fmt.Errorf("sim: slot record carries %d trailing byte(s)", len(b)-int(n))
	}
	return SlotRecord{Kind: k.kind, Stream: k.stream, Sub: k.sub, Realization: k.r, Payload: payload}, nil
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
// stolen-from worker's late duplicate cannot double-append. A fresh record
// is appended to the file (crash-safe under the usual batched-fsync
// contract) and becomes immediately replayable through the resume path.
// Only slot-payload kinds are accepted; bookkeeping kinds are rejected.
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
	k := journalKey{kind: rec.Kind, stream: rec.Stream, sub: rec.Sub, r: rec.Realization}
	j.mu.Lock()
	if _, dup := j.resumed[k]; dup {
		j.mu.Unlock()
		return false, nil
	}
	// Mirror append()'s sticky-error discipline inline: the key must be
	// registered only when the bytes are durably queued.
	if j.err != nil {
		defer j.mu.Unlock()
		return false, j.err
	}
	if werr := j.writeRecord(k, rec.Payload); werr != nil {
		j.err = fmt.Errorf("sim: journal %s: %w", j.path, werr)
		defer j.mu.Unlock()
		return false, j.err
	}
	j.pending++
	var serr error
	if j.pending >= journalFsyncBatch {
		serr = j.syncLocked()
	}
	j.resumed[k] = rec.Payload
	if j.recCount == nil {
		j.recCount = map[int]int{}
	}
	j.recCount[rec.Realization]++
	j.mu.Unlock()
	return true, serr
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
	// The marker payload is a single version byte; append() skips nil
	// payloads, so it must be non-empty.
	return j.append(journalKey{kind: recRealDone, r: r}, []byte{1})
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
	if st, err := f.Stat(); err == nil {
		info.FileBytes = st.Size()
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, journalMagic) {
		return info, fmt.Errorf("sim: %s is not an experiment journal (bad magic)", path)
	}
	info.GoodBytes = int64(len(journalMagic))
	k, payload, n, ok := readRecord(br)
	if !ok || k.kind != recHeader {
		return info, fmt.Errorf("sim: %s: unreadable header record", path)
	}
	if err := decodeJournalHeaderInto(&info, payload); err != nil {
		return info, fmt.Errorf("sim: %s: %w", path, err)
	}
	info.GoodBytes += n
	done := map[int]bool{}
	for {
		k, payload, n, ok := readRecord(br)
		if !ok {
			break
		}
		switch {
		case slotKind(k.kind):
			info.Records = append(info.Records, JournalRecordInfo{
				Kind: k.kind, KindName: KindName(k.kind),
				Stream: k.stream, Sub: k.sub, Realization: k.r,
				PayloadLen: len(payload),
			})
		case k.kind == recRealDone:
			done[k.r] = true
		case k.kind == recFailure:
			if fr, ok := decodeFailure(k, payload); ok {
				info.Failures = append(info.Failures, fr)
			}
		default:
			// Unknown kind that happened to checksum: corruption. Stop at
			// the last good record, exactly as loadJournal would.
			return finishInspect(info, done), nil
		}
		info.GoodBytes += n
	}
	return finishInspect(info, done), nil
}

func finishInspect(info JournalInfo, done map[int]bool) JournalInfo {
	for r := range done {
		info.Done = append(info.Done, r)
	}
	sort.Ints(info.Done)
	return info
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

// Scheduler-knob-free copy of a Scale for the wire: the workload half
// determines the numbers; the scheduler half is every worker's own
// business. Run never crosses the wire.
func (sc Scale) WorkloadOnly() Scale {
	sc.Workers, sc.SourceShards, sc.GenWorkers = 0, 0, 0
	sc.Run = nil
	return sc
}
