// Package coord distributes experiment runs across processes: a
// coordinator serves (spec, realization) work leases, workers claim
// leases, renew them via heartbeats, execute the build+sweep for their
// realization under the existing (seed, realization, phase) stream
// contract, and stream back journal-format slot records (ROADMAP item 4,
// after the sigmaos besched/proc-claiming idiom).
//
// Robustness model:
//
//   - Leases expire on missed heartbeats and are reissued to whichever
//     worker claims next (work stealing), so a SIGKILLed or partitioned
//     worker delays its realization by at most one lease TTL.
//   - Completions are idempotent: records land in the coordinator's
//     journal under their (kind, stream, sub, realization) key with
//     first-writer-wins semantics, so a slow stolen-from worker's late
//     duplicates are dropped, never double-counted.
//   - The coordinator journals every accepted record and every verified
//     completion, so its own crash resumes through the ordinary -resume
//     path with nothing recomputed that survived.
//   - Result frames are flow-controlled: a lease grant carries a credit
//     window (creditWindow frames), the worker's sink waits while that many
//     of its frames are unacknowledged, and the coordinator acks each frame
//     once it has journaled (or dropped) it and handed the buffer back to
//     the transport. At most workers × window frames are ever queued
//     toward the coordinator, however slow its journal, so the transport's
//     small free list of recycled buffers covers them all. The wait is
//     bounded by the lease TTL: a worker starved that long stops streaming
//     and reports fail, and the realization is recomputed.
//   - The final reduction is a normal local spec run against that journal:
//     journaled realizations replay bit-for-bit, anything lost in flight
//     or never distributed is recomputed locally. Distribution can
//     therefore only accelerate a run — it cannot change a single byte of
//     its output, which is the determinism contract the chaos tests pin.
//
// The protocol rides p2p.Network envelopes of KindCoord, so production runs
// use the TCP transport's retry/backoff and tests compose with
// InMemoryNetwork and FaultyNetwork fault injection. The transport sees an
// envelope header and opaque Data; only this package knows what they hold:
//
//   - a control message (claim, lease, wait, hb, ack, complete, fail,
//     shutdown) is wireMsg as JSON in Data;
//   - a result — one slot record, nearly all the bytes a run moves — has
//     Msg.ID "result", the job's spec in Msg.Key, and as Data exactly the
//     record's journal frame ([u32 len][u32 CRC][21 B key][payload]): the
//     buffer the worker's block codec built, handed to the transport without
//     a copy. Send retains no Data, so the worker's sink releases the record
//     once Send returns and its sweep encodes the next record into the same
//     buffer. The coordinator validates length and CRC in place and appends
//     those bytes to its journal verbatim; nothing re-encodes a record. The
//     journal keeps no frame, so RunJob then hands the received buffer back
//     to a transport that reuses them (TCPNetwork.Recycle), which reads a
//     later frame into it.
//
// p2p.MaxData is sized from sim.MaxRecordFrame (a no-cutoff degree histogram
// at paper scale is a ~0.8 MB record); a worker whose Send is refused as too
// large reports fail with that reason, not a complete bound to be rejected.
package coord

import (
	"encoding/json"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// Protocol message types. Workers send claim/heartbeat/result/complete/
// fail; the coordinator replies lease/wait to claims, ack to results, and
// pushes shutdown when the whole session is over.
const (
	mtClaim     = "claim"    // worker → coord: give me work
	mtLease     = "lease"    // coord → worker: realization granted
	mtWait      = "wait"     // coord → worker: nothing leasable now, poll again
	mtHeartbeat = "hb"       // worker → coord: still computing, renew my lease
	mtResult    = "result"   // worker → coord: one slot record
	mtAck       = "ack"      // coord → worker: Records result frames for Realization handled
	mtComplete  = "complete" // worker → coord: realization finished, Records streamed
	mtFail      = "fail"     // worker → coord: realization failed permanently here
	mtShutdown  = "shutdown" // coord → worker: session over, exit
)

// creditWindow is how many of a lease's result frames may be unacknowledged
// at once. It is a protocol constant, not a knob: the coordinator's queue
// holds at most workers × creditWindow frames, which a fleet of two fits
// into the TCP transport's 8 recycled read buffers.
const creditWindow = 4

// leaseProtocol is appended to every lease's workload fingerprint. A
// worker and a coordinator that disagree on the control protocol (one
// built before credit acks, say) then refuse each other through the
// fingerprint check, the path any workload skew takes. The byte is not
// part of sim.WorkloadFingerprint, so journal headers do not change.
const leaseProtocol byte = 2

// leaseFingerprint is the fingerprint a lease carries and a worker checks.
func leaseFingerprint(spec string, seed uint64, sc sim.Scale) []byte {
	return append(sim.WorkloadFingerprint(spec, seed, sc), leaseProtocol)
}

// The transport must carry the largest record the journal would read back.
var _ [p2p.MaxData - sim.MaxRecordFrame]struct{}

// wireMsg is the coordinator/worker protocol message. Spec doubles as the
// job identity on every worker→coord message: the coordinator serves jobs
// sequentially and drops stragglers addressed to a different spec, so a
// late record from the previous job can never leak into the current
// journal. A result carries only Spec and Record, outside the JSON.
type wireMsg struct {
	Type   string `json:"t"`
	Worker string `json:"w,omitempty"` // sender's claim/reply address
	Spec   string `json:"spec,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Scale ships the workload (scheduler knobs and Run stripped); the
	// worker re-derives the fingerprint from it and refuses a mismatch.
	Scale       *sim.Scale `json:"scale,omitempty"`
	Fingerprint []byte     `json:"fp,omitempty"`
	Realization int        `json:"r"`
	Lease       uint64     `json:"lease,omitempty"`
	TTLMillis   int64      `json:"ttl,omitempty"`
	HBMillis    int64      `json:"hb,omitempty"`
	// Window is a lease's credit: how many result frames the worker may
	// have unacknowledged.
	Window int `json:"win,omitempty"`
	// Record is one sim.SlotRecord in journal framing (length+CRC), so a
	// frame torn anywhere between worker and journal fails loudly: the
	// result envelope's Data itself, on both ends.
	Record []byte `json:"-"`
	// Records is the completing worker's streamed-record count; the
	// coordinator verifies its journal holds at least that many for the
	// realization before marking it done. On an ack it is how many of the
	// worker's result frames for Realization the coordinator has handled
	// since the lease, so a lost ack is repaired by the next.
	Records int    `json:"n,omitempty"`
	Err     string `json:"err,omitempty"`
}

// sendWire routes one protocol message. Delivery failures are the
// caller's to interpret: fire-and-forget for heartbeats, fatal for a
// worker's record stream.
func sendWire(net p2p.Network, from, to string, m wireMsg) error {
	msg := p2p.Message{Kind: p2p.KindCoord}
	if m.Type == mtResult {
		msg.ID, msg.Key, msg.Data = mtResult, m.Spec, m.Record
	} else {
		b, err := json.Marshal(m)
		if err != nil {
			return err
		}
		msg.Data = b
	}
	return net.Send(p2p.Envelope{From: from, To: to, Msg: msg})
}

// decodeWire extracts a protocol message from an envelope; ok=false for
// foreign kinds or malformed payloads, both ignored by receivers: bytes
// from a stranger or a mismatched build never reach the lease logic.
func decodeWire(env p2p.Envelope) (wireMsg, bool) {
	if env.Msg.Kind != p2p.KindCoord || len(env.Msg.Data) == 0 {
		return wireMsg{}, false
	}
	if env.Msg.ID == mtResult {
		return wireMsg{Type: mtResult, Spec: env.Msg.Key, Record: env.Msg.Data}, true
	}
	// A result travels only as raw Data under ID "result": JSON claiming
	// to be one is malformed.
	var m wireMsg
	if err := json.Unmarshal(env.Msg.Data, &m); err != nil || m.Type == mtResult {
		return wireMsg{}, false
	}
	return m, true
}

// millis converts a wire duration field, with a floor so a zero or
// corrupt value cannot spin a hot loop.
func millis(v int64, fallback time.Duration) time.Duration {
	if v <= 0 {
		return fallback
	}
	return time.Duration(v) * time.Millisecond
}
