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
//   - The final reduction is a normal local spec run against that journal:
//     journaled realizations replay bit-for-bit, anything lost in flight
//     or never distributed is recomputed locally. Distribution can
//     therefore only accelerate a run — it cannot change a single byte of
//     its output, which is the determinism contract the chaos tests pin.
//
// The protocol rides p2p.Network envelopes (KindCoord with an opaque JSON
// payload), so production runs use the TCP transport's retry/backoff and
// tests compose with InMemoryNetwork and FaultyNetwork fault injection.
package coord

import (
	"encoding/json"
	"time"

	"scalefree/internal/p2p"
	"scalefree/internal/sim"
)

// Protocol message types. Workers send claim/heartbeat/result/complete/
// fail; the coordinator replies lease/wait to claims and pushes shutdown
// when the whole session is over.
const (
	mtClaim     = "claim"    // worker → coord: give me work
	mtLease     = "lease"    // coord → worker: realization granted
	mtWait      = "wait"     // coord → worker: nothing leasable now, poll again
	mtHeartbeat = "hb"       // worker → coord: still computing, renew my lease
	mtResult    = "result"   // worker → coord: one slot record
	mtComplete  = "complete" // worker → coord: realization finished, Records streamed
	mtFail      = "fail"     // worker → coord: realization failed permanently here
	mtShutdown  = "shutdown" // coord → worker: session over, exit
)

// wireMsg is the coordinator/worker protocol message, carried as opaque
// JSON in p2p.Message.Data. Spec doubles as the job identity on every
// worker→coord message: the coordinator serves jobs sequentially and
// drops stragglers addressed to a different spec, so a late record from
// the previous job can never leak into the current journal.
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
	// Record is one sim.SlotRecord in journal framing (length+CRC), so a
	// frame torn anywhere between worker and journal fails loudly.
	Record []byte `json:"rec,omitempty"`
	// Records is the completing worker's streamed-record count; the
	// coordinator verifies its journal holds at least that many for the
	// realization before marking it done.
	Records int    `json:"n,omitempty"`
	Err     string `json:"err,omitempty"`
}

// sendWire routes one protocol message. Delivery failures are the
// caller's to interpret: fire-and-forget for heartbeats, fatal for a
// worker's record stream.
func sendWire(net p2p.Network, from, to string, m wireMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return net.Send(p2p.Envelope{From: from, To: to, Msg: p2p.Message{Kind: p2p.KindCoord, Data: b}})
}

// decodeWire extracts a protocol message from an envelope; ok=false for
// foreign kinds or malformed payloads (both ignored by receivers —
// overlay traffic and coordinator traffic may share a transport).
func decodeWire(env p2p.Envelope) (wireMsg, bool) {
	if env.Msg.Kind != p2p.KindCoord || len(env.Msg.Data) == 0 {
		return wireMsg{}, false
	}
	var m wireMsg
	if err := json.Unmarshal(env.Msg.Data, &m); err != nil {
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
