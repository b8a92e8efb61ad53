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
// for any Workers on either side; the header deliberately omits the
// parallelism budget for exactly that reason.
//
// The record key is (kind, stream, sub, realization): stream is the
// engine seed of the sweep, sub the FNV hash of a human-readable tag
// distinguishing sweeps that share a seed by design (the DES loss and
// failure series isolate their knob against identical topologies), kind
// the payload family.
//
// The record frame is the only serialisation a record ever gets: the block
// codec encodes a realization's block straight into one frame buffer, a
// local run writes that buffer, a distributed worker ships it, the
// coordinator's Accept appends the received bytes verbatim, and replay
// reads them back by file offset (see dist.go and internal/coord).
//
// Who owns a frame, and for how long: the journal never keeps one — append
// copies it into the file before returning — so a local run encodes every
// record of a sweep worker into that worker's one frame buffer, reused for
// its next realization. A frame handed to a worker's sink is lent: it
// becomes the SlotRecord's, and the sink either calls Release before it
// returns — the buffer goes back to the sweeper for its next record, which
// is what internal/coord's worker does once the transport has sent it — or
// keeps the record for good, and the sweeper starts a fresh buffer.
// Build-only series encode each record into a fresh buffer. Replay hands
// out a view of the journal's read buffer, valid only inside the callback.

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
	"slices"
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
	frameHeaderLen    = 8        // body length + CRC32(body)
	frameOverhead     = frameHeaderLen + journalKeyLen
)

// MaxRecordFrame is the largest record frame a journal reads back, and so
// the largest a worker-to-coordinator transport has to carry.
const MaxRecordFrame = frameHeaderLen + journalMaxBody

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

// Journal is the append side of one experiment's journal file plus an
// index of the slot records it holds — recovered when opened with resume, or
// taken by Accept — for replay. Every method is safe for concurrent use.
type Journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	end     int64 // append offset: the file is exactly the bytes written so far
	pending int
	err     error

	// index locates each replayable record's frame in the file — memory
	// does not grow with the journal; rbuf is the buffer replay reads into.
	index map[journalKey]recordLoc
	rbuf  []byte

	// Distributed-run bookkeeping (see dist.go): realizations verified
	// complete by the coordinator, and per-realization slot-record counts.
	done     map[int]bool
	recCount map[int]int
}

// recordLoc is where one record's frame sits in the journal file.
type recordLoc struct {
	off  int64
	size int // frame bytes, prefix included
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
	j := &Journal{path: path, f: f, index: map[journalKey]recordLoc{}}
	// Magic and header go out as one write.
	_, err = j.appendLocked(append(append([]byte(nil), journalMagic...), encodeFrame(journalKey{kind: recHeader}, hdr)...))
	if err == nil {
		err = j.syncLocked()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// loadJournal scans an existing journal: magic, header (which must equal
// wantHdr byte for byte), then records until EOF or the first torn/corrupt
// record, at which point the file is truncated to the last good offset so
// subsequent appends extend a clean prefix.
func loadJournal(path string, f *os.File, wantHdr []byte) (*Journal, error) {
	j := &Journal{path: path, f: f, index: map[journalKey]recordLoc{}, recCount: map[int]int{}}
	sc, err := scanJournal(path, f, func(hdr []byte) error {
		if !bytes.Equal(hdr, wantHdr) {
			return fmt.Errorf("%w: %s was written by a different run (spec, seed, scale, or schema changed)", errJournalMismatch, path)
		}
		return nil
	}, func(k journalKey, _ int, loc recordLoc) {
		if _, dup := j.index[k]; !dup {
			j.recCount[k.r]++
		}
		j.index[k] = loc
	})
	if err != nil {
		return nil, fmt.Errorf("%w; delete it or rerun without -resume", err)
	}
	if err := f.Truncate(sc.good); err != nil {
		return nil, fmt.Errorf("sim: truncate torn journal %s: %w", path, err)
	}
	j.end, j.done = sc.good, sc.done
	return j, nil
}

// journalScan is what a front-to-back read of a journal file finds besides
// its slot records: the clean prefix's length, failures, completion markers.
type journalScan struct {
	good, fileBytes int64
	failures        []FailureRecord
	done            map[int]bool
}

// scanJournal reads a journal file through one reused buffer: the magic, the
// header record (handed to header, whose error aborts the scan), then every
// record up to EOF or the first torn or corrupt one, reporting each slot
// record's key, payload length and location to slot.
func scanJournal(path string, f *os.File, header func(hdr []byte) error,
	slot func(k journalKey, payloadLen int, loc recordLoc)) (journalScan, error) {
	sc := journalScan{done: map[int]bool{}}
	st, err := f.Stat()
	if err != nil {
		return sc, fmt.Errorf("sim: stat journal %s: %w", path, err)
	}
	sc.fileBytes = st.Size()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, journalMagic) {
		return sc, fmt.Errorf("sim: %s is not an experiment journal (bad magic)", path)
	}
	sc.good = int64(len(journalMagic))
	buf := make([]byte, frameHeaderLen, 4096)
	for {
		k, payload, size, ok := parseFrame(readFrame(br, &buf, sc.fileBytes-sc.good))
		switch first := sc.good == int64(len(journalMagic)); {
		case first && (!ok || k.kind != recHeader):
			return sc, fmt.Errorf("sim: journal %s: unreadable header record", path)
		case first:
			if err := header(payload); err != nil {
				return sc, err
			}
		case !ok:
			return sc, nil
		case k.kind == recFailure:
			if fr, ok := decodeFailure(k, payload); ok {
				sc.failures = append(sc.failures, fr)
			}
		case k.kind == recRealDone:
			sc.done[k.r] = true
		case slotKind(k.kind):
			slot(k, len(payload), recordLoc{off: sc.good, size: size})
		default:
			// The header pinned the schema version, so an unknown kind is
			// corruption that happened to checksum; stop at the last good
			// record before it.
			return sc, nil
		}
		sc.good += int64(size)
	}
}

// readFrame reads the next frame's bytes, unverified, into *buf, which grows
// only to a length the avail bytes left in the file can fill: a torn tail's
// length prefix must not size an allocation. nil = EOF or no such record.
func readFrame(br *bufio.Reader, buf *[]byte, avail int64) []byte {
	b := (*buf)[:frameHeaderLen]
	if _, err := io.ReadFull(br, b); err != nil {
		return nil
	}
	n, ok := frameBodyLen(b, avail-frameHeaderLen)
	if !ok {
		return nil
	}
	if cap(b) < frameHeaderLen+n {
		b = append(make([]byte, 0, frameHeaderLen+n), b...)
		*buf = b
	}
	b = b[:frameHeaderLen+n]
	if _, err := io.ReadFull(br, b[frameHeaderLen:]); err != nil {
		return nil
	}
	return b
}

// frameBodyLen reads a frame's length prefix and refuses one over the record
// bound or over the avail bytes that exist after the prefix.
func frameBodyLen(pre []byte, avail int64) (int, bool) {
	n := int64(binary.LittleEndian.Uint32(pre))
	return int(n), n >= journalKeyLen && n <= journalMaxBody && n <= avail
}

// parseFrame validates the frame at the head of b in place and returns its
// key, its payload (a sub-slice of b) and its size. ok=false on a short
// slice, an implausible length, or a checksum mismatch — all of which mean
// "torn tail" to a journal scan.
func parseFrame(b []byte) (k journalKey, payload []byte, size int, ok bool) {
	if len(b) < frameHeaderLen {
		return k, nil, 0, false
	}
	n, ok := frameBodyLen(b, int64(len(b)-frameHeaderLen))
	if !ok {
		return k, nil, 0, false
	}
	body := b[frameHeaderLen : frameHeaderLen+n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:8]) {
		return k, nil, 0, false
	}
	return decodeKey(body), body[journalKeyLen:], frameHeaderLen + n, true
}

func decodeKey(body []byte) journalKey {
	return journalKey{
		kind:   body[0],
		stream: binary.LittleEndian.Uint64(body[1:9]),
		sub:    binary.LittleEndian.Uint64(body[9:17]),
		r:      int(binary.LittleEndian.Uint32(body[17:journalKeyLen])),
	}
}

// newFrame starts one record frame — [4B body len][4B CRC32(body)][key]
// [payload], on disk and on the wire alike — in dst's storage (nil: a fresh
// buffer), with the prefix reserved, the key written and room for
// payloadLen more bytes: the encoder appends the payload in place and
// sealFrame patches the prefix, so the payload is never copied.
func newFrame(dst []byte, k journalKey, payloadLen int) []byte {
	b := slices.Grow(dst[:0], frameOverhead+payloadLen)[:frameHeaderLen]
	b = append(b, k.kind)
	b = binary.LittleEndian.AppendUint64(b, k.stream)
	b = binary.LittleEndian.AppendUint64(b, k.sub)
	return binary.LittleEndian.AppendUint32(b, uint32(k.r))
}

// sealFrame patches the length and checksum of a frame begun by newFrame.
func sealFrame(frame []byte) []byte {
	body := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return frame
}

// encodeFrame frames a payload that already exists as bytes.
func encodeFrame(k journalKey, payload []byte) []byte {
	return sealFrame(append(newFrame(nil, k, len(payload)), payload...))
}

// appendFrame is appendLocked for one sealed frame; nil journal or frame: no-op.
func (j *Journal) appendFrame(frame []byte) error {
	if j == nil || frame == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.appendLocked(frame)
	return err
}

// appendLocked writes b at the end of the file, returning its offset, and
// fsyncs every journalFsyncBatch appends. Errors are sticky: after a failed
// write the journal refuses further appends, so a full disk aborts the run
// instead of silently dropping checkpoints. Caller holds j.mu.
func (j *Journal) appendLocked(b []byte) (off int64, err error) {
	if j.err != nil {
		return 0, j.err
	}
	off = j.end
	if _, err := j.f.WriteAt(b, off); err != nil {
		j.err = fmt.Errorf("sim: journal %s: %w", j.path, err)
		return 0, j.err
	}
	j.end += int64(len(b))
	j.pending++
	if j.pending >= journalFsyncBatch {
		return off, j.syncLocked()
	}
	return off, nil
}

// replay hands use the payload of the record journaled under k, read back
// into the journal's replay buffer with checksum and key verified again, and
// reports whether there is one (a record that no longer reads back intact
// counts as absent: its realization is recomputed). use must copy out what
// it keeps and, running under the journal's lock, not call the journal.
func (j *Journal) replay(k journalKey, use func(payload []byte)) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	loc, ok := j.index[k]
	if !ok {
		return false
	}
	if cap(j.rbuf) < loc.size {
		j.rbuf = make([]byte, loc.size)
	}
	if _, err := j.f.ReadAt(j.rbuf[:loc.size], loc.off); err != nil {
		return false
	}
	got, payload, size, ok := parseFrame(j.rbuf[:loc.size])
	if !ok || size != loc.size || got != k {
		return false
	}
	use(payload)
	return true
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

// Resumed reports how many replayable records the journal holds: those
// recovered when it was opened with resume plus those Accept has taken.
func (j *Journal) Resumed() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.index)
}

// encodeJournalHeader pins everything that determines the figures:
// schema version, spec, seed, and the workload half of Scale. The
// parallelism budget (Workers) is excluded on purpose — it never affects
// the numbers, so a run may be resumed with different parallelism than it
// started with.
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

// appendRowBlock frames nRows float64 rows of rowLen values each under k,
// in dst's storage (see newFrame) — the exact bits of one realization's
// block, so replay is bit-for-bit. rowLen < 0 takes the first row's length.
// Returns nil (skip journaling) on any shape mismatch.
func appendRowBlock(dst []byte, k journalKey, rows [][]float64, rowLen int) []byte {
	if rowLen < 0 && len(rows) > 0 {
		rowLen = len(rows[0])
	}
	b := newFrame(dst, k, 8+len(rows)*rowLen*8)
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
	return sealFrame(b)
}

// rowBlockShape checks that a row-block payload carries exactly nRows rows
// of rowLen values and returns rowLen; rowLen < 0 accepts whatever row
// length the payload declares. ok=false is a record from a schema drift the
// header check missed — treated as not-completed.
func rowBlockShape(p []byte, nRows, rowLen int) (int, bool) {
	if len(p) < 8 || binary.LittleEndian.Uint32(p[0:4]) != uint32(nRows) {
		return 0, false
	}
	if rowLen < 0 {
		rowLen = int(binary.LittleEndian.Uint32(p[4:8]))
	}
	return rowLen, binary.LittleEndian.Uint32(p[4:8]) == uint32(rowLen) && len(p) == 8+nRows*rowLen*8
}

// decodeRowBlock is the inverse of appendRowBlock for a payload of
// rowBlockShape: the block, in rows of one fresh slab.
func decodeRowBlock(p []byte, nRows, rowLen int) ([][]float64, bool) {
	rowLen, ok := rowBlockShape(p, nRows, rowLen)
	if !ok {
		return nil, false
	}
	rows := slabRows(make([][]float64, nRows), make([]float64, nRows*rowLen), rowLen)
	off := 8
	for _, row := range rows {
		for t := range row {
			row[t] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8]))
			off += 8
		}
	}
	return rows, true
}

// decodeRowMeans reduces a payload of nCurves × sources rows of rowLen
// values (curve-major) straight from its bytes to the nCurves mean rows —
// bit-for-bit what meanCurves makes of the decoded block, because it sums
// the same values in the same order — without decoding the block.
func decodeRowMeans(p []byte, nCurves, sources, rowLen int) ([][]float64, bool) {
	if _, ok := rowBlockShape(p, nCurves*sources, rowLen); !ok {
		return nil, false
	}
	means := make([][]float64, nCurves)
	off := 8
	for c := range means {
		sums := make([]float64, rowLen)
		for range sources {
			for t := range sums {
				sums[t] += math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8]))
				off += 8
			}
		}
		for t := range sums {
			sums[t] /= float64(sources)
		}
		means[c] = sums
	}
	return means, true
}

// appendHistogram frames a degree histogram (counts[k] = #nodes with
// degree k), the per-realization contribution of the degree specs, in dst's
// storage (see newFrame).
func appendHistogram(dst []byte, k journalKey, hist []int) []byte {
	b := newFrame(dst, k, 4+len(hist)*8)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hist)))
	for _, c := range hist {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	return sealFrame(b)
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
