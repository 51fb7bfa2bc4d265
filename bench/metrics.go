package main

// The metric catalogue: every name the harness emits, with its unit. It
// mirrors BENCHMARK.json (a test holds the two together); the harness
// reads bounds and directions from that file, names and units from here.

type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"completion_s_overlapped", "s"},
	{"completion_s_blocking", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"setup_s", "s"},
}

var perLayerDefs = []metricDef{
	// stencil: the kernels alone, sequentially.
	{"stencil.sqrt3d_ns_per_point", "ns"},
	{"stencil.sqrt3d_allocs_per_point", "count"},
	{"stencil.sum2d_ns_per_point", "ns"},
	// runner: two in-process ranks on the in-process fabric.
	{"runner.points_per_s_blocking", "1/s"},
	{"runner.points_per_s_overlapped", "1/s"},
	{"runner.allocs_per_point", "count"},
	{"runner.allocs_per_tile", "count"},
	{"runner.alloc_bytes_per_tile", "B"},
	{"runner.tile_overhead_us", "us"},
	{"runner.gather_mb_per_s", "MB/s"},
	{"runner.run2d_points_per_s", "1/s"},
	{"runner.checkpoint_ms", "ms"},
	{"runner.checkpoint_mb_per_s", "MB/s"},
	{"runner.self_s", "s"},
	{"runner.overlap_gain_pct", "%"},
	// mp: both transports in isolation, then per rank from the traced run.
	{"mp.inproc.roundtrip_us", "us"},
	{"mp.inproc.throughput_mb_per_s", "MB/s"},
	{"mp.tcp.roundtrip_us", "us"},
	{"mp.tcp.throughput_mb_per_s", "MB/s"},
	{"mp.tcp.allocs_per_msg", "count"},
	{"mp.tcp.connect_ms", "ms"},
	{"mp.msgs", "count"},
	{"mp.bytes", "B"},
	{"mp.send_busy_s", "s"},
	{"mp.recv_wait_s", "s"},
	{"mp.send_wait_s", "s"},
	{"mp.barrier_s", "s"},
	// obs: what observing costs.
	{"obs.comm_overhead_pct", "%"},
	{"obs.trace_overhead_pct", "%"},
	// model, sim, simnet: one prediction, one simulation, the cache.
	{"model.predict_ns", "ns"},
	{"sim.simulate_ms", "ms"},
	{"sim.build_activities_per_s", "1/s"},
	{"simnet.activities_per_s", "1/s"},
	{"sim.allocs_per_tile", "count"},
	{"sim.cache.hit_ns", "ns"},
	{"sim.cache.miss_insert_ns", "ns"},
	{"sim.cache.evict_ns", "ns"},
	{"sim.cache.hits", "count"},
	{"sim.cache.misses", "count"},
	{"sim.cache.evals", "count"},
	{"sim.cache.evictions", "count"},
	{"sim.cache.coalesced", "count"},
	// estimate, experiments: one optimum query, one figure.
	{"estimate.optimum_ms", "ms"},
	{"estimate.des_evals_per_query", "count"},
	{"estimate.certified_share", "ratio"},
	{"experiments.fig9_sweep_s", "s"},
	// planapi: the wire format.
	{"planapi.decode_us", "us"},
	{"planapi.encode_us", "us"},
	{"planapi.key_ns", "ns"},
	// tileserve and tilenode, from outside.
	{"tileserve.latency_p99_ms", "ms"},
	{"tileserve.latency_max_ms", "ms"},
	{"tileserve.admitted", "count"},
	{"tileserve.shed", "count"},
	{"tileserve.coalesced", "count"},
	{"tileserve.cancelled", "count"},
	{"tileserve.http_overhead_us", "us"},
	{"tileserve.peak_rss_mb", "MB"},
	{"tilenode.job_wall_s", "s"},
	{"tilenode.peak_rss_mb", "MB"},
	// The traced run: where the root spans' time went.
	{"trace.root_s", "s"},
	{"trace.spans", "count"},
	{"trace.coverage_pct", "%"},
	{"trace.self_pct.stencil", "%"},
	{"trace.self_pct.runner", "%"},
	{"trace.self_pct.mp", "%"},
	{"trace.self_pct.planapi", "%"},
	{"trace.self_pct.estimate", "%"},
	{"trace.self_pct.sim", "%"},
	{"trace.self_pct.model", "%"},
	{"trace.self_pct.harness", "%"},
	// The host and the harness itself.
	{"host.build_s", "s"},
	{"host.spin_ms", "ms"},
	{"host.nproc", "count"},
	{"host.loadavg_start", "count"},
	{"bench.fail_share", "ratio"},
}

var (
	endToEndNames = namesOf(endToEndDefs)
	perLayerNames = namesOf(perLayerDefs)
	metricUnits   = unitsOf(endToEndDefs, perLayerDefs)
)

func namesOf(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func unitsOf(lists ...[]metricDef) map[string]string {
	m := make(map[string]string)
	for _, defs := range lists {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}

func unitOf(name string) string { return metricUnits[name] }

func allMetricNames() []string {
	return append(append([]string(nil), endToEndNames...), perLayerNames...)
}
