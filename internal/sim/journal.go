package sim

// Per-realization result journal: the crash-safety substrate of
// cmd/experiments. One journal file records one experiment invocation: a
// header pinning everything that determines the numbers (schema version,
// spec ID, seed, and the determinism-relevant Scale fields), followed by
// length-prefixed CRC32-checksummed records — one per completed
// realization of each journaled sweep, carrying that realization's
// per-index slot contribution verbatim, plus failure records from the
// supervisor. Appends are batch-fsynced: a crash loses at most the last
// journalFsyncBatch records (they simply re-run on resume) and corrupts
// nothing — resume validates every record's checksum and truncates the
// torn tail.
//
// Resume is bit-for-bit: a journaled slot payload is the exact float64
// (or integer) bits the original run deposited, and the index-order
// reduction consumes replayed and freshly computed slots identically, so
// a resumed run's figures are byte-identical to an uninterrupted run's —
// for any (Workers, SourceShards, GenWorkers) on either side; the header
// deliberately omits the scheduler knobs for exactly that reason.
//
// The record key is (kind, stream, sub, realization): stream is the
// engine seed of the sweep, sub the FNV hash of a human-readable tag
// distinguishing sweeps that share a seed by design (the DES loss and
// failure series isolate their knob against identical topologies), kind
// the payload family. These records are also the wire-format groundwork
// for ROADMAP item 4: a coordinator/worker protocol streams exactly this
// shape — (stream, realization)-keyed slot contributions that reduce
// bit-identically regardless of arrival order.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sync"
)

// Journal record kinds. The header pins the schema version, so kinds are
// only ever extended, never reinterpreted.
const (
	recHeader uint8 = 0 // header payload; always the first record
	// recSweepSlots is a block of float64 rows: sources × (maxTTL+1) for
	// the search sweeps, one row of per-realization values or a few curves
	// for the extension specs.
	recSweepSlots uint8 = 1
	recDegreeHist uint8 = 2 // mergedDegreeDist: one degree histogram
	recDESSlots   uint8 = 3 // desSweep: nCurves × sources rows
	recRealDone   uint8 = 4 // coordinator: realization verified complete
	recFailure    uint8 = 9 // supervisor: permanent realization failure
)

const (
	journalVersion    = 3
	journalMaxBody    = 64 << 20 // sanity bound when scanning; larger = torn
	journalFsyncBatch = 8        // records between fsyncs on the append path
	journalKeyLen     = 21       // kind + stream + sub + realization
)

var journalMagic = []byte("SFEJ1\n")

var errJournalMismatch = errors.New("sim: journal header mismatch")

// journalKey identifies one record: the payload family, the sweep's
// engine seed, the tag hash, and the realization index.
type journalKey struct {
	kind   uint8
	stream uint64
	sub    uint64
	r      int
}

// journalTag hashes a human-readable sweep tag into the key's sub field.
// Tags disambiguate sweeps that intentionally share an engine seed (the
// DES specs isolate their loss/failure knob against identical topologies
// by reusing one seed per series).
func journalTag(tag string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, tag)
	return h.Sum64()
}

// Journal is the append side of one experiment's journal file plus the
// records recovered from a previous run when opened with resume. Appends
// are safe from concurrent sweep workers; the resumed map is read-only
// for the Journal's lifetime.
type Journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	pending int
	err     error

	resumed  map[journalKey][]byte
	failures []FailureRecord
	claims   map[journalClaimKey]string

	// Distributed-run bookkeeping (see dist.go): realizations verified
	// complete by the coordinator, and per-realization slot-record counts.
	done     map[int]bool
	recCount map[int]int
}

// journalClaimKey identifies one journaled record family: every record a
// helper writes for one series shares its (kind, stream, sub).
type journalClaimKey struct {
	kind        uint8
	stream, sub uint64
}

// claim registers a record family under a human-readable tag. Within one
// process every family is claimed exactly once (a resumed run re-claims
// in a fresh process), so ANY duplicate means two series would overwrite
// each other's records and silently replay each other's rows on resume —
// the exact corruption a checkpoint exists to prevent. The guard turns
// that into a loud error on the very first checkpointed run, not only
// after a crash: it caught fig9's PA/HAPA m=1 panels (same seed offset,
// same label format) and Messaging's hits-vs-messages pair (same label,
// same seed, different metric).
func (j *Journal) claim(k journalClaimKey, tag string) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.claims == nil {
		j.claims = make(map[journalClaimKey]string)
	}
	if prev, ok := j.claims[k]; ok {
		return fmt.Errorf("sim: journal key collision: series %q and %q both checkpoint under (kind=%d, stream=%#x, sub=%#x); give one a distinct tag or seed",
			prev, tag, k.kind, k.stream, k.sub)
	}
	j.claims[k] = tag
	return nil
}

// OpenJournal opens <path> for experiment `spec` at the given seed and
// scale. With resume=false (or no file to resume) it truncates and writes
// a fresh header. With resume=true it validates the existing header
// against (version, spec, seed, scale) — refusing to mix runs — scans the
// records, truncates any torn tail, and keeps the recovered payloads
// available for replay while appending new records after them.
func OpenJournal(path, spec string, seed uint64, sc Scale, resume bool) (*Journal, error) {
	hdr := encodeJournalHeader(spec, seed, sc)
	if resume {
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		switch {
		case err == nil:
			j, lerr := loadJournal(path, f, hdr)
			if lerr != nil {
				f.Close()
				return nil, lerr
			}
			return j, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("sim: open journal %s: %w", path, err)
		}
		// No journal on disk: resuming a run that died before its first
		// fsync (or never started) is just a fresh run.
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sim: create journal %s: %w", path, err)
	}
	j := &Journal{path: path, f: f, resumed: map[journalKey][]byte{}}
	if _, err := f.Write(journalMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("sim: create journal %s: %w", path, err)
	}
	if err := j.writeRecord(journalKey{kind: recHeader}, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("sim: create journal %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sim: create journal %s: %w", path, err)
	}
	return j, nil
}

// loadJournal scans an existing journal: magic, header (which must equal
// wantHdr byte for byte), then records until EOF or the first torn/corrupt
// record, at which point the file is truncated to the last good offset so
// subsequent appends extend a clean prefix.
func loadJournal(path string, f *os.File, wantHdr []byte) (*Journal, error) {
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, journalMagic) {
		return nil, fmt.Errorf("sim: %s is not an experiment journal (bad magic); delete it or rerun without -resume", path)
	}
	good := int64(len(journalMagic))
	k, payload, n, ok := readRecord(br)
	if !ok || k.kind != recHeader {
		return nil, fmt.Errorf("sim: journal %s: unreadable header record; delete it or rerun without -resume", path)
	}
	if !bytes.Equal(payload, wantHdr) {
		return nil, fmt.Errorf("%w: %s was written by a different run (spec, seed, scale, or schema changed); delete it or rerun without -resume", errJournalMismatch, path)
	}
	good += n
	resumed := map[journalKey][]byte{}
	var failures []FailureRecord
	done := map[int]bool{}
	recCount := map[int]int{}
scan:
	for {
		k, payload, n, ok := readRecord(br)
		if !ok {
			break // EOF or torn tail
		}
		switch k.kind {
		case recFailure:
			if fr, ok := decodeFailure(k, payload); ok {
				failures = append(failures, fr)
			}
		case recRealDone:
			done[k.r] = true
		case recSweepSlots, recDegreeHist, recDESSlots:
			if _, dup := resumed[k]; !dup {
				recCount[k.r]++
			}
			resumed[k] = payload
		default:
			// The header pinned the schema version, so an unknown kind is
			// corruption that happened to checksum; stop at the last good
			// record before it.
			break scan
		}
		good += n
	}
	if err := f.Truncate(good); err != nil {
		return nil, fmt.Errorf("sim: truncate torn journal %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, fmt.Errorf("sim: seek journal %s: %w", path, err)
	}
	return &Journal{path: path, f: f, resumed: resumed, failures: failures, done: done, recCount: recCount}, nil
}

// readRecord reads one length-prefixed record; ok=false on EOF, short
// read, an implausible length, or a checksum mismatch — all of which mean
// "torn tail" to the caller.
func readRecord(br *bufio.Reader) (k journalKey, payload []byte, size int64, ok bool) {
	var pre [8]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return k, nil, 0, false
	}
	bodyLen := binary.LittleEndian.Uint32(pre[0:4])
	sum := binary.LittleEndian.Uint32(pre[4:8])
	if bodyLen < journalKeyLen || bodyLen > journalMaxBody {
		return k, nil, 0, false
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(br, body); err != nil {
		return k, nil, 0, false
	}
	if crc32.ChecksumIEEE(body) != sum {
		return k, nil, 0, false
	}
	k.kind = body[0]
	k.stream = binary.LittleEndian.Uint64(body[1:9])
	k.sub = binary.LittleEndian.Uint64(body[9:17])
	k.r = int(binary.LittleEndian.Uint32(body[17:journalKeyLen]))
	return k, body[journalKeyLen:], int64(8 + int(bodyLen)), true
}

// append writes one record and fsyncs every journalFsyncBatch appends.
// Errors are sticky: after a failed write the journal refuses further
// appends, so a full disk aborts the run instead of silently dropping
// checkpoints. A nil journal or nil payload is a no-op.
func (j *Journal) append(k journalKey, payload []byte) error {
	if j == nil || payload == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.writeRecord(k, payload); err != nil {
		j.err = fmt.Errorf("sim: journal %s: %w", j.path, err)
		return j.err
	}
	j.pending++
	if j.pending >= journalFsyncBatch {
		return j.syncLocked()
	}
	return nil
}

// encodeRecord assembles one record's on-disk (and on-wire) bytes:
// [4B body len][4B CRC32(body)][key][payload].
func encodeRecord(k journalKey, payload []byte) []byte {
	body := make([]byte, 0, journalKeyLen+len(payload))
	body = append(body, k.kind)
	body = binary.LittleEndian.AppendUint64(body, k.stream)
	body = binary.LittleEndian.AppendUint64(body, k.sub)
	body = binary.LittleEndian.AppendUint32(body, uint32(k.r))
	body = append(body, payload...)
	rec := make([]byte, 0, 8+len(body))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// writeRecord assembles and writes one record. Caller holds j.mu (or has
// exclusive access during open).
func (j *Journal) writeRecord(k journalKey, payload []byte) error {
	_, err := j.f.Write(encodeRecord(k, payload))
	return err
}

func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("sim: journal %s: %w", j.path, err)
		return j.err
	}
	j.pending = 0
	return nil
}

// Flush fsyncs any records appended since the last batch boundary.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.pending > 0 {
		return j.syncLocked()
	}
	return nil
}

// Close flushes and closes the file. The journal stays on disk; deleting
// it after a fully successful run is the caller's call.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.Flush()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if cerr := j.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Resumed reports how many completed-realization records were recovered
// when the journal was opened with resume.
func (j *Journal) Resumed() int {
	if j == nil {
		return 0
	}
	return len(j.resumed)
}

// ResumedFailures returns the failure records recovered on resume. The
// realizations they name are re-attempted (a failure record does not mark
// a realization complete); the records exist for accounting.
func (j *Journal) ResumedFailures() []FailureRecord {
	if j == nil {
		return nil
	}
	return append([]FailureRecord(nil), j.failures...)
}

// encodeJournalHeader pins everything that determines the figures:
// schema version, spec, seed, and the workload half of Scale. The
// scheduler knobs (Workers, SourceShards, GenWorkers) are excluded on
// purpose — they never affect the numbers, so a run may be resumed with
// different parallelism than it started with.
func encodeJournalHeader(spec string, seed uint64, sc Scale) []byte {
	b := binary.LittleEndian.AppendUint64(nil, journalVersion)
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(spec)))
	b = append(b, spec...)
	for _, v := range []int{
		sc.NDegree, sc.NSearch, sc.NSubstrate, sc.NOverlay,
		sc.Realizations, sc.Sources, sc.MaxTTLFlood, sc.MaxTTLNF,
		// Estimator knobs (journal v2): these change published numbers,
		// so a resume across different budgets must be rejected.
		sc.BCPivots, sc.PathLandmarks, sc.PathPairs, sc.WalkCap,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range []float64{
		sc.DESLatencyBase, sc.DESLatencyJitter, sc.DESLoss,
		sc.DESFailFrac, sc.DESFailMTBF,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// encodeRowBlock serializes nRows float64 rows of rowLen values each —
// the exact bits of one realization's block, so replay is bit-for-bit.
// rowLen < 0 takes the first row's length. Returns nil (skip journaling) on
// any shape mismatch.
func encodeRowBlock(rows [][]float64, rowLen int) []byte {
	if rowLen < 0 && len(rows) > 0 {
		rowLen = len(rows[0])
	}
	b := make([]byte, 0, 8+len(rows)*rowLen*8)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.LittleEndian.AppendUint32(b, uint32(rowLen))
	for _, row := range rows {
		if len(row) != rowLen {
			return nil
		}
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeRowBlock is the inverse of encodeRowBlock; ok=false when the
// payload does not carry exactly nRows × rowLen values (a record from a
// schema drift the header check missed — treated as not-completed).
// rowLen < 0 accepts whatever row length the payload declares.
func decodeRowBlock(p []byte, nRows, rowLen int) ([][]float64, bool) {
	if len(p) < 8 || binary.LittleEndian.Uint32(p[0:4]) != uint32(nRows) {
		return nil, false
	}
	if rowLen < 0 {
		rowLen = int(binary.LittleEndian.Uint32(p[4:8]))
	}
	if binary.LittleEndian.Uint32(p[4:8]) != uint32(rowLen) || len(p) != 8+nRows*rowLen*8 {
		return nil, false
	}
	rows := make([][]float64, nRows)
	off := 8
	for i := range rows {
		row := make([]float64, rowLen)
		for t := range row {
			row[t] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8]))
			off += 8
		}
		rows[i] = row
	}
	return rows, true
}

// encodeHistogram serializes a degree histogram (counts[k] = #nodes with
// degree k), the per-realization contribution of the degree specs.
func encodeHistogram(hist []int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(hist)))
	for _, c := range hist {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return b
}

func decodeHistogram(p []byte) ([]int, bool) {
	if len(p) < 4 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(p[0:4]))
	if len(p) != 4+n*8 {
		return nil, false
	}
	hist := make([]int, n)
	off := 4
	for i := range hist {
		hist[i] = int(binary.LittleEndian.Uint64(p[off : off+8]))
		off += 8
	}
	return hist, true
}

func encodeFailure(fr FailureRecord) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(fr.Attempts))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(fr.Err)))
	b = append(b, fr.Err...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(fr.Stack)))
	b = append(b, fr.Stack...)
	return b
}

func decodeFailure(k journalKey, p []byte) (FailureRecord, bool) {
	fr := FailureRecord{Stream: k.stream, Realization: k.r}
	if len(p) < 4 {
		return fr, false
	}
	fr.Attempts = int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	take := func() (string, bool) {
		if len(p) < 4 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(p[0:4]))
		if len(p) < 4+n {
			return "", false
		}
		s := string(p[4 : 4+n])
		p = p[4+n:]
		return s, true
	}
	var ok bool
	if fr.Err, ok = take(); !ok {
		return fr, false
	}
	if fr.Stack, ok = take(); !ok {
		return fr, false
	}
	return fr, len(p) == 0
}
