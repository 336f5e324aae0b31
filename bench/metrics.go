package main

// metricSpec names one reported metric and its unit. BENCHMARK.json
// lists the same names (a test holds the two together); README.md says
// what each measures and which end-to-end metric a layer should move.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// cross reports 0.
var perLayer = []metricSpec{
	{"isa.build_us", "us"},
	{"memory.new_us", "us"},
	{"asm.assemble_us", "us"},
	{"asm.instrs", "count"},
	{"compiler.compile_us", "us"},
	{"core.new_us", "us"},
	{"core.run_us", "us"},
	{"core.ns_per_cycle", "ns"},
	{"core.cycles", "count"},
	{"core.committed", "count"},
	{"stats.report_us", "us"},
	{"api.decode_us", "us"},
	{"api.encode_us", "us"},
	{"api.req_bytes", "count"},
	{"api.resp_bytes", "count"},
	{"sim.state_us", "us"},
	{"sim.step1_us", "us"},
	{"sim.stepback_us", "us"},
	{"sim.snapshots", "count"},
	{"sim.checkpoint_us", "us"},
	{"sim.restore_us", "us"},
	{"sim.ckpt_bytes", "count"},
	{"server.build_us", "us"},
	{"server.total_us_per_req", "us"},
	{"server.sim_us_per_req", "us"},
	{"server.json_us_per_req", "us"},
	{"server.shed", "count"},
	{"server.deadline_exceeded", "count"},
	{"server.gzip_us", "us"},
	{"server.gzip_ratio", "ratio"},
	{"server.unattributed_us", "us"},
	{"router.hop_us", "us"},
	{"router.forwards", "count"},
	{"router.retries", "count"},
	{"router.breaker_open", "count"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.dir_put_us", "us"},
	{"store.dir_get_us", "us"},
	{"client.step_fwd_p50_ms", "ms"},
	{"client.step_back_p50_ms", "ms"},
	{"client.session_new_p50_ms", "ms"},
	{"client.checkpoint_p50_ms", "ms"},
	{"client.restore_p50_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.gen_us_per_op", "us"},
	{"host.allocs_per_op", "count"},
	{"host.gc_pause_ms", "ms"},
	{"host.heap_retained_mb", "MB"},
	{"host.cpu_s", "s"},
	{"host.trace_overhead_pct", "%"},
}
