package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"scalefree/internal/des"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/p2p"
	"scalefree/internal/search"
	"scalefree/internal/sim"
	"scalefree/internal/xrand"
)

// recordKey identifies the journal record of one series' realization 0.
type recordKey struct {
	kind        uint8
	stream, sub uint64
}

// modelAcc sums one generator's replayed builds.
type modelAcc struct {
	seconds      float64
	nodes, edges int
	st           gen.Stats
}

// replay rebuilds realization 0 of every series of a workload, serially,
// through the layers' public functions, recording one span per call. The
// calls are serial, so a layer's seconds are its spans' durations: process
// CPU would also charge it the collector's concurrent work on garbage the
// end-to-end run left behind. Every series is checked against the record
// the engine itself produced for it.
type replay struct {
	tr      *tracer
	root    int
	sc      sim.Scale
	records map[recordKey]sim.SlotRecord
	seen    map[recordKey]bool

	scratch *search.Scratch
	sim     *des.Sim

	sec        map[string]float64 // span seconds by layer: gen, graph, search, des
	models     map[string]*modelAcc
	substrates map[uint64]*graph.Frozen
	grnS       float64

	freezeS     float64
	freezeEdges int
	snapshotMB  float64
	snapshots   int

	queryS   map[string]float64 // by alg
	queries  map[string]int
	floodMsg int
	desM     des.Metrics // summed counters

	encodeS float64
	frames  [][]byte // MarshalBinary of each checked record, in series order
	ordered []sim.SlotRecord

	lastGraph  *graph.Graph
	lastFrozen *graph.Frozen
	lastDef    seriesDef
}

// timed runs fn inside a span and charges its duration to layer.
func (rp *replay) timed(span, layer string, fn func() error) (float64, error) {
	id := rp.tr.begin(span, rp.root)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0).Seconds()
	rp.tr.end(id)
	rp.sec[layer] += dt
	return dt, err
}

func (rp *replay) substrate(d topoDef) (*graph.Frozen, error) {
	if f := rp.substrates[d.substrate]; f != nil {
		return f, nil
	}
	var f *graph.Frozen
	dt, err := rp.timed("gen.build", "gen", func() (err error) {
		f, _, err = gen.GRNFrozen(gen.GRNConfig{N: rp.sc.NSubstrate, MeanDegree: 10},
			gen.NewBuild(xrand.Phases{Seed: d.substrate}, 1))
		return err
	})
	rp.grnS += dt
	rp.substrates[d.substrate] = f
	return f, err
}

// build generates and freezes one series' topology the way its factory in
// internal/sim does: growth models grow a mutable Graph and freeze it,
// CM emits straight into CSR.
func (rp *replay) build(d seriesDef) (*graph.Frozen, error) {
	t := d.topo
	b := gen.NewBuild(xrand.Phases{Seed: d.seed}, 1)
	var sub *graph.Frozen
	if t.model == "dapa" {
		var err error
		if sub, err = rp.substrate(t); err != nil {
			return nil, err
		}
	}
	var g *graph.Graph
	var f *graph.Frozen
	var st gen.Stats
	dt, err := rp.timed("gen.build", "gen", func() (err error) {
		switch t.model {
		case "pa":
			g, st, err = gen.PABuild(gen.PAConfig{N: t.n, M: t.m, KC: t.kc}, b)
		case "hapa":
			g, st, err = gen.HAPABuild(gen.HAPAConfig{N: t.n, M: t.m, KC: t.kc}, b)
		case "cm":
			f, st, err = gen.CMFrozen(gen.CMConfig{N: t.n, M: t.m, KC: t.kc, Gamma: t.gamma}, b)
		case "dapa":
			var ov *gen.Overlay
			ov, st, err = gen.DAPABuild(sub, gen.DAPAConfig{NOverlay: t.n, M: t.m, KC: t.kc, TauSub: t.tauSub}, b)
			if err == nil {
				g = ov.G
			}
		default:
			err = fmt.Errorf("unknown model %q", t.model)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	fdt, _ := rp.timed("graph.freeze", "graph", func() error {
		if g != nil {
			f = g.FreezePar(1)
		}
		f.MaterializeSorted(1)
		return nil
	})
	acc := rp.models[t.model]
	if acc == nil {
		acc = &modelAcc{}
		rp.models[t.model] = acc
	}
	acc.seconds += dt
	acc.nodes += f.N()
	acc.edges += f.M()
	acc.st.Attempts += st.Attempts
	acc.st.Fallbacks += st.Fallbacks
	acc.st.UnfilledStubs += st.UnfilledStubs
	acc.st.SelfLoopsRemoved += st.SelfLoopsRemoved
	acc.st.MultiEdgesRemoved += st.MultiEdgesRemoved
	acc.st.Hops += st.Hops
	acc.st.HorizonQueries += st.HorizonQueries
	acc.st.EmptyHorizons += st.EmptyHorizons
	if g != nil {
		rp.freezeS += fdt
		rp.freezeEdges += f.M()
		rp.lastGraph = g
	}
	// offsets + neighbors + sorted membership ranges, 4 bytes each.
	rp.snapshotMB += float64(4*(f.N()+1+4*f.M())) / 1e6
	rp.snapshots++
	rp.lastFrozen, rp.lastDef = f, d
	return f, nil
}

// kernel runs the series' search from src on the replay's pooled scratch.
func (rp *replay) kernel(d seriesDef, f *graph.Frozen, src int, rng *xrand.RNG) (res search.Result, m des.Metrics, err error) {
	switch d.alg {
	case "fl":
		res, err = rp.scratch.Flood(f, src, d.maxTTL)
	case "nf":
		res, err = rp.scratch.NormalizedFlood(f, src, d.maxTTL, d.kMin, rng)
	case "rw":
		res, _, err = rp.scratch.RandomWalkWithNFBudget(f, src, d.maxTTL, d.kMin, rng)
	case "des":
		lat := des.Latency{Base: 1, Jitter: 1, Phases: xrand.Phases{Seed: d.seed}}
		m, err = rp.sim.Flood(f, src, des.Config{MaxTTL: d.maxTTL, Latency: lat, Loss: d.loss}, rng)
	default:
		err = fmt.Errorf("unknown algorithm %q", d.alg)
	}
	return res, m, err
}

// query runs source s of the series on f and returns its journal rows:
// one for a CSR search, three (hits, mean arrival time, messages) for DES.
func (rp *replay) query(d seriesDef, f *graph.Frozen, s int) ([][]float64, error) {
	rng := xrand.NewStream(d.seed, 0, uint64(s))
	src := rng.Intn(f.N())
	rowLen := d.maxTTL + 1
	span := "search.query"
	if d.alg == "des" {
		span = "des.query"
	}
	id := rp.tr.begin(span, rp.root)
	t0 := time.Now()
	res, m, err := rp.kernel(d, f, src, rng)
	rp.queryS[d.alg] += time.Since(t0).Seconds()
	rp.tr.end(id)
	rp.queries[d.alg]++
	if err != nil {
		return nil, err
	}
	if d.alg != "des" {
		if d.alg == "fl" {
			rp.floodMsg += res.MessagesAt(d.maxTTL)
		}
		row := make([]float64, rowLen)
		for t := range row {
			row[t] = float64(res.HitsAt(t))
		}
		return [][]float64{row}, nil
	}
	rp.desM.Sent += m.Sent
	rp.desM.Delivered += m.Delivered
	rp.desM.Dropped += m.Dropped
	rp.desM.Duplicates += m.Duplicates
	rows := [][]float64{make([]float64, rowLen), make([]float64, rowLen), make([]float64, rowLen)}
	hits, sent := 0, 0
	for h := 0; h <= d.maxTTL; h++ {
		hits += m.HitsByHop[h]
		rows[0][h] = float64(hits)
		if m.HitsByHop[h] > 0 {
			rows[1][h] = m.TimeByHop[h] / float64(m.HitsByHop[h])
		}
		rows[2][h] = float64(sent)
		if h < d.maxTTL {
			sent += m.SentByHop[h]
		}
	}
	return rows, nil
}

// rowBlock lays rows out as the journal's row-block payload: two uint32
// (rows, row length) then the float64 bits, little endian.
func rowBlock(rows [][]float64, rowLen int) []byte {
	b := make([]byte, 0, 8+len(rows)*rowLen*8)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.LittleEndian.AppendUint32(b, uint32(rowLen))
	for _, row := range rows {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

func (rp *replay) series(d seriesDef) error {
	f, err := rp.build(d)
	if err != nil {
		return fmt.Errorf("series %q: %w", d.tag, err)
	}
	var perSource [][][]float64
	for s := 0; s < rp.sc.Sources; s++ {
		rows, err := rp.query(d, f, s)
		if err != nil {
			return fmt.Errorf("series %q source %d: %w", d.tag, s, err)
		}
		perSource = append(perSource, rows)
	}

	// Curve-major, as the engine journals a realization.
	var rows [][]float64
	for c := range perSource[0] {
		for _, src := range perSource {
			rows = append(rows, src[c])
		}
	}
	k := recordKey{d.kind, d.seed, xrand.PhaseKey(d.tag)}
	rec, ok := rp.records[k]
	if !ok {
		return fmt.Errorf("series %q: the spec journals no record under (kind=%d, stream=%#x): the replay's series table drifted from internal/sim", d.tag, d.kind, d.seed)
	}
	if !bytes.Equal(rec.Payload, rowBlock(rows, d.maxTTL+1)) {
		return fmt.Errorf("series %q: replayed realization 0 differs from the record the engine produced", d.tag)
	}
	rp.seen[k] = true
	id := rp.tr.begin("sim.record_encode", rp.root)
	t0 := time.Now()
	frame := rec.MarshalBinary()
	rp.encodeS += time.Since(t0).Seconds()
	rp.tr.end(id)
	rp.frames = append(rp.frames, frame)
	rp.ordered = append(rp.ordered, rec)
	return nil
}

// captureRecords runs the spec restricted to realization 0 under the
// public worker run control and returns what it would have journaled.
func captureRecords(spec sim.Spec, sc sim.Scale, seed uint64) (map[recordKey]sim.SlotRecord, error) {
	var mu sync.Mutex
	records := map[recordKey]sim.SlotRecord{}
	rc := sim.NewWorkerRunControl(context.Background(), 1, 0, func(rec sim.SlotRecord) {
		mu.Lock()
		records[recordKey{rec.Kind, rec.Stream, rec.Sub}] = rec
		mu.Unlock()
	})
	sc.Run = rc
	// A run restricted to one realization may fail its reduction after
	// every record was produced (coord.worker tolerates the same).
	if _, err := spec.Run(sc, seed); err != nil && (len(records) == 0 || len(rc.Failures()) > 0) {
		return nil, err
	}
	return records, nil
}

// traceLayers produces every per-layer metric of one traced child: from
// the spans of the end-to-end run it just finished (res, tr), from the
// realization-0 replay, and from probes of the layers' hot public calls.
func traceLayers(w workload, sc sim.Scale, seed uint64, outdir string, res opResult, fleet *distRun, tr *tracer) (map[string]float64, error) {
	spec, err := sim.Lookup(w.spec)
	if err != nil {
		return nil, err
	}
	table, err := seriesTable(w.spec, sc, seed)
	if err != nil {
		return nil, err
	}
	records, err := captureRecords(spec, sc, seed)
	if err != nil {
		return nil, fmt.Errorf("capture realization 0: %w", err)
	}
	rp := &replay{
		tr: tr, sc: sc, records: records, seen: map[recordKey]bool{},
		scratch: search.NewScratch(0), sim: des.NewSim(0),
		sec: map[string]float64{}, models: map[string]*modelAcc{}, substrates: map[uint64]*graph.Frozen{},
		queryS: map[string]float64{}, queries: map[string]int{},
	}
	rp.root = tr.begin("replay", 0)
	for _, d := range table {
		if err := rp.series(d); err != nil {
			return nil, err
		}
	}
	for k := range records {
		if !rp.seen[k] {
			return nil, fmt.Errorf("the spec journals a record under (kind=%d, stream=%#x, sub=%#x) that the replay's series table lacks", k.kind, k.stream, k.sub)
		}
	}

	L := map[string]float64{}
	spanS := tr.seconds()
	R := float64(sc.Realizations)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// gen: exact counts from gen.Stats, seconds from the gen.build spans.
	var all modelAcc
	for _, acc := range rp.models {
		all.edges += acc.edges
		all.st.Fallbacks += acc.st.Fallbacks
		all.st.UnfilledStubs += acc.st.UnfilledStubs
	}
	if acc := rp.models["hapa"]; acc != nil {
		L["gen.hapa_build_s"] = acc.seconds
		L["gen.hapa_nodes_per_s"] = div(float64(acc.nodes), acc.seconds)
		L["gen.hapa_attempts_per_edge"] = div(float64(acc.st.Attempts), float64(acc.edges))
		L["gen.hapa_hops_per_node"] = div(float64(acc.st.Hops), float64(acc.nodes))
	}
	if acc := rp.models["pa"]; acc != nil {
		L["gen.pa_build_s"] = acc.seconds
		L["gen.pa_attempts_per_edge"] = div(float64(acc.st.Attempts), float64(acc.edges))
	}
	if acc := rp.models["dapa"]; acc != nil {
		L["gen.dapa_build_s"] = acc.seconds
		L["gen.dapa_horizon_queries"] = float64(acc.st.HorizonQueries)
		L["gen.dapa_empty_horizon_frac"] = div(float64(acc.st.EmptyHorizons), float64(acc.st.HorizonQueries))
		L["gen.dapa_attempts_per_edge"] = div(float64(acc.st.Attempts), float64(acc.edges))
		L["gen.grn_build_s"] = rp.grnS
	}
	if acc := rp.models["cm"]; acc != nil {
		removed := float64(acc.st.SelfLoopsRemoved + acc.st.MultiEdgesRemoved)
		L["gen.cm_build_s"] = acc.seconds
		L["gen.cm_edges_per_s"] = div(float64(acc.edges), acc.seconds)
		L["gen.cm_removed_frac"] = div(removed, removed+float64(acc.edges))
	}
	L["gen.fallback_frac"] = div(float64(all.st.Fallbacks), float64(all.edges))
	L["gen.unfilled_stubs"] = float64(all.st.UnfilledStubs)

	L["graph.freeze_s"] = rp.freezeS
	L["graph.freeze_edges_per_s"] = div(float64(rp.freezeEdges), rp.freezeS)
	L["graph.snapshot_mb"] = div(rp.snapshotMB, float64(rp.snapshots))

	L["search.flood_us_per_query"] = 1e6 * div(rp.queryS["fl"], float64(rp.queries["fl"]))
	L["search.flood_edges_per_s"] = div(float64(rp.floodMsg), rp.queryS["fl"])
	L["search.nf_us_per_query"] = 1e6 * div(rp.queryS["nf"], float64(rp.queries["nf"]))
	L["search.rw_us_per_query"] = 1e6 * div(rp.queryS["rw"], float64(rp.queries["rw"]))
	searchS := rp.queryS["fl"] + rp.queryS["nf"] + rp.queryS["rw"]
	L["search.sweep_s"] = searchS

	L["des.flood_ms_per_query"] = 1e3 * div(rp.queryS["des"], float64(rp.queries["des"]))
	L["des.events_per_s"] = div(float64(rp.desM.Sent), rp.queryS["des"])
	L["des.ns_per_event"] = 1e9 * div(rp.queryS["des"], float64(rp.desM.Sent))
	L["des.dup_frac"] = div(float64(rp.desM.Duplicates), float64(rp.desM.Delivered))
	L["des.dropped_frac"] = div(float64(rp.desM.Dropped), float64(rp.desM.Sent))

	if err := rp.probes(L, seed); err != nil {
		return nil, err
	}

	// sim: the record path. Accepting every captured record once per
	// realization writes the workload's whole journal volume.
	accept, err := rp.acceptAll(filepath.Join(outdir, "accept.journal"), seed)
	if err != nil {
		return nil, err
	}
	L["sim.journal_append_records_per_s"] = div(float64(accept.records), accept.seconds)
	L["sim.journal_append_mb_per_s"] = div(float64(accept.bytes)/1e6, accept.seconds)
	L["sim.journal_bytes"] = float64(res.JournalBytes)
	L["sim.record_encode_ns"] = 1e9 * div(rp.encodeS, float64(len(rp.frames)))
	decodeS, err := rp.decodeAll()
	if err != nil {
		return nil, err
	}
	L["sim.record_decode_ns"] = 1e9 * div(decodeS, float64(len(rp.frames)))
	openS, replayS, err := rp.resume(spec, seed, outdir, res)
	if err != nil {
		return nil, err
	}
	L["sim.journal_open_s"] = openS
	L["sim.journal_replay_s"] = replayS
	L["sim.journal_replay_mb_per_s"] = div(float64(res.JournalBytes)/1e6, replayS)
	L["sim.csv_write_s"] = spanS["sim.write_csv"]
	L["sim.csv_bytes"] = float64(res.CSVBytes)
	L["sim.recovered"] = float64(res.Recovered)
	L["sim.parallel_efficiency"] = div(res.CPUS, res.WallS*float64(res.GOMAXPROCS))
	L["sim.peak_rss_mb"] = res.PeakRSSMB

	// p2p: the transport under the record path, at the workload's own
	// record size and count.
	frame := rp.medianFrame()
	tcp, err := tcpProbe(frame, max(len(rp.frames)*sc.Realizations, 512), tr, rp.root)
	if err != nil {
		return nil, err
	}
	L["p2p.tcp_send_msgs_per_s"] = div(float64(tcp.msgs), tcp.seconds)
	L["p2p.tcp_send_mb_per_s"] = div(float64(tcp.msgs*tcp.payload)/1e6, tcp.seconds)
	L["p2p.wire_expansion"] = div(float64(tcp.wire), float64(tcp.payload))
	L["p2p.tcp_retries"] = float64(tcp.stats.Retries)
	L["p2p.tcp_reconnects"] = float64(tcp.stats.Reconnects)
	L["p2p.inmem_send_ns"] = inmemProbe(frame)

	// coord: counters of the job the end-to-end run just served.
	recordsCPU := R*rp.encodeS + accept.cpu
	if fleet != nil {
		job := fleet.job
		L["coord.job_s"] = spanS["coord.run_job"]
		L["coord.records_per_s"] = div(float64(job.Accepted), spanS["coord.run_job"])
		L["coord.mb_per_s"] = div(float64(res.JournalBytes)/1e6, spanS["coord.run_job"])
		L["coord.reduce_s"] = spanS["sim.spec_run"]
		L["coord.leases_issued"] = float64(job.LeasesIssued)
		L["coord.reissued"] = float64(job.Reissued)
		L["coord.dup_records"] = float64(job.DupRecords)
		L["coord.bad_records"] = float64(job.BadRecords)
		L["coord.rejected"] = float64(job.Rejected)
		L["coord.given_up"] = float64(job.GivenUp)
		for _, ws := range fleet.workers {
			L["coord.worker_waits"] += float64(ws.Waits)
		}
		for _, st := range fleet.tcp {
			L["p2p.tcp_retries"] += float64(st.Retries)
			L["p2p.tcp_reconnects"] += float64(st.Reconnects)
		}
		// The fleet's records crossed TCP and were decoded before Accept;
		// the reduction then replayed them.
		perMsg := div(tcp.cpu, float64(tcp.msgs))
		recordsCPU += perMsg*float64(job.Accepted) + R*decodeS + spanS["sim.spec_run"]
	}

	// The budget: realization 0's replayed CPU stands for each of the R
	// realizations; the record path was replayed at full volume.
	L["gen.cpu_share"] = div(R*rp.sec["gen"], res.CPUS)
	L["graph.cpu_share"] = div(R*rp.sec["graph"], res.CPUS)
	L["search.cpu_share"] = div(R*searchS, res.CPUS)
	L["des.cpu_share"] = div(R*rp.queryS["des"], res.CPUS)
	L["sim.records_cpu_share"] = div(recordsCPU, res.CPUS)
	attributed := R*(rp.sec["gen"]+rp.sec["graph"]+searchS+rp.queryS["des"]) + recordsCPU + spanS["sim.write_csv"]
	L["sim.unattributed_frac"] = 1 - div(attributed, res.CPUS)
	tr.end(rp.root)
	return L, nil
}

// probeSink keeps the probed calls' results alive.
var probeSink int

// probes times the hot public calls a replayed build or sweep is made of,
// on the workload's own last topology.
func (rp *replay) probes(L map[string]float64, seed uint64) error {
	const draws = 1 << 20
	perCall := func(n int, fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	rng := xrand.New(seed)

	table := xrand.NewPowerLawTable(2, rp.sc.NSearch, 2.6)
	L["xrand.powerlaw_ns_per_draw"] = perCall(draws, func(int) { probeSink += table.Sample(rng) })
	L["xrand.stream_ns"] = perCall(draws/8, func(i int) { probeSink += int(xrand.NewStream(seed, 0, uint64(i)).Uint64() & 1) })

	// Growth probes HasEdge and RandomNeighbor on the mutable Graph; a
	// workload that grows nothing is probed on a PA graph of its own size.
	g := rp.lastGraph
	if g == nil {
		var err error
		if g, _, err = gen.PABuild(gen.PAConfig{N: rp.sc.NSearch, M: 2}, gen.NewBuild(xrand.Phases{Seed: seed}, 1)); err != nil {
			return err
		}
	}
	pairs := make([][2]int32, 1<<12)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))}
	}
	L["graph.hasedge_ns"] = perCall(draws, func(i int) {
		p := pairs[i&(len(pairs)-1)]
		if g.HasEdge(int(p[0]), int(p[1])) {
			probeSink++
		}
	})
	L["graph.random_neighbor_ns"] = perCall(draws, func(i int) { probeSink += g.RandomNeighbor(int(pairs[i&(len(pairs)-1)][0]), rng) })

	f := rp.lastFrozen
	cb := graph.NewCSRBuilder(f.N(), 1, nil)
	for u := 0; u < f.N(); u++ {
		for _, v := range f.Neighbors(u) {
			if int32(u) <= v {
				cb.Edge(0, int32(u), v)
			}
		}
	}
	t0 := time.Now()
	probeSink += cb.Finalize(1, true).M()
	L["graph.csr_finalize_s"] = time.Since(t0).Seconds()

	// Steady-state allocations of one query of the workload's last series,
	// on the warmed scratch the replay used.
	const probeQueries = 32
	d := rp.lastDef
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < probeQueries; i++ {
		if _, _, err := rp.kernel(d, f, int(pairs[i][0])%f.N(), rng); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / probeQueries
	if d.alg == "des" {
		L["des.allocs_per_query"] = allocs
	} else {
		L["search.allocs_per_query"] = allocs
	}
	return nil
}

type acceptResult struct {
	records      int
	bytes        int64
	seconds, cpu float64
}

// acceptAll journals every checked record once per realization index
// through Journal.Accept, the public append path (batched fsync included).
func (rp *replay) acceptAll(path string, seed uint64) (acceptResult, error) {
	var out acceptResult
	j, err := sim.OpenJournal(path, "bench-accept", seed, rp.sc, false)
	if err != nil {
		return out, err
	}
	c0 := cpuSeconds()
	t0 := time.Now()
	for r := 0; r < rp.sc.Realizations; r++ {
		for _, rec := range rp.ordered {
			rec.Realization = r
			id := rp.tr.begin("sim.journal_accept", rp.root)
			fresh, err := j.Accept(rec)
			rp.tr.end(id)
			if err != nil || !fresh {
				j.Close()
				return out, fmt.Errorf("accept %s: fresh=%v err=%v", rec.Key(), fresh, err)
			}
			out.records++
		}
	}
	if err := j.Close(); err != nil {
		return out, err
	}
	out.seconds = time.Since(t0).Seconds()
	out.cpu = cpuSeconds() - c0
	if st, err := os.Stat(path); err == nil {
		out.bytes = st.Size()
	}
	return out, os.Remove(path)
}

func (rp *replay) decodeAll() (float64, error) {
	t0 := time.Now()
	for _, frame := range rp.frames {
		if _, err := sim.DecodeSlotRecord(frame); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// resume reopens the journal the end-to-end run left behind and replays
// the spec on it — the read beside the write — and checks that the
// replayed figures are the bytes the run wrote.
func (rp *replay) resume(spec sim.Spec, seed uint64, outdir string, res opResult) (openS, totalS float64, err error) {
	id := rp.tr.begin("sim.journal_replay", rp.root)
	defer rp.tr.end(id)
	t0 := time.Now()
	j, err := sim.OpenJournal(filepath.Join(outdir, spec.ID+".journal"), spec.ID, seed, rp.sc, true)
	if err != nil {
		return 0, 0, err
	}
	openS = time.Since(t0).Seconds()
	sc := rp.sc
	sc.Run = sim.NewRunControl(context.Background(), 1, 0, j)
	figs, err := spec.Run(sc, seed)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	totalS = time.Since(t0).Seconds()
	dir := filepath.Join(outdir, "replayed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	for _, fig := range figs {
		if err := writeCSV(filepath.Join(dir, fig.ID+".csv"), fig); err != nil {
			return 0, 0, err
		}
	}
	digest, _, err := digestCSVs(dir)
	if err != nil {
		return 0, 0, err
	}
	if digest != res.Digest {
		return 0, 0, errors.New("journal replay wrote different CSV bytes than the run that filled the journal")
	}
	return openS, totalS, nil
}

// medianFrame is the median-sized record frame of the workload.
func (rp *replay) medianFrame() []byte {
	frames := append([][]byte(nil), rp.frames...)
	sort.Slice(frames, func(i, j int) bool { return len(frames[i]) < len(frames[j]) })
	return frames[len(frames)/2]
}

type tcpResult struct {
	msgs, payload, wire int
	seconds, cpu        float64
	stats               p2p.TCPStats
}

// tcpProbe sends n coordinator-style result messages carrying frame over
// loopback TCP between two transports and waits until all are decoded.
func tcpProbe(frame []byte, n int, tr *tracer, parent int) (tcpResult, error) {
	out := tcpResult{msgs: n, payload: len(frame)}
	recv, send := p2p.NewTCPNetwork(), p2p.NewTCPNetwork()
	defer recv.Close()
	defer send.Close()
	inbox := make(chan p2p.Envelope, n)
	if err := recv.Register("127.0.0.1:0", inbox); err != nil {
		return out, err
	}
	to := recv.ListenAddr("127.0.0.1:0")
	// The shape internal/coord puts on the wire for one streamed record.
	type wire struct {
		Type   string `json:"t"`
		Worker string `json:"w"`
		Spec   string `json:"spec"`
		R      int    `json:"r"`
		Lease  uint64 `json:"lease"`
		Record []byte `json:"rec"`
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			select {
			case env := <-inbox:
				var m wire
				if err := json.Unmarshal(env.Msg.Data, &m); err != nil || len(m.Record) != len(frame) {
					done <- fmt.Errorf("tcp probe: message %d arrived damaged", i)
					return
				}
			case <-time.After(30 * time.Second):
				done <- fmt.Errorf("tcp probe: %d of %d messages arrived", i, n)
				return
			}
		}
		done <- nil
	}()
	id := tr.begin("p2p.tcp_send", parent)
	c0 := cpuSeconds()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		data, err := json.Marshal(wire{Type: "result", Worker: "127.0.0.1:1", Spec: "bench", R: i, Lease: 1, Record: frame})
		if err != nil {
			return out, err
		}
		env := p2p.Envelope{From: "127.0.0.1:1", To: to, Msg: p2p.Message{Kind: p2p.KindCoord, Data: data}}
		if i == 0 {
			b, _ := json.Marshal(env)
			out.wire = len(b) + 1 // newline-delimited
		}
		if err := send.Send(env); err != nil {
			return out, fmt.Errorf("tcp probe send: %w", err)
		}
	}
	err := <-done
	out.seconds = time.Since(t0).Seconds()
	out.cpu = cpuSeconds() - c0
	tr.end(id)
	out.stats = send.Stats()
	return out, err
}

// inmemProbe is the in-process transport's cost per Send of the same
// message.
func inmemProbe(frame []byte) float64 {
	const n = 1 << 14
	net := p2p.NewInMemoryNetwork()
	inbox := make(chan p2p.Envelope, n)
	if err := net.Register("sink", inbox); err != nil {
		return 0
	}
	env := p2p.Envelope{From: "src", To: "sink", Msg: p2p.Message{Kind: p2p.KindCoord, Data: frame}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := net.Send(env); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
