package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, printed for every
// workload by an untraced run. The timing bounds are the widest the
// benchmark contract allows: on the shared reference host the speed of
// the CPU itself wanders, and repeated runs of one sweep seed took from
// 10.9 to 16.0 ms of CPU per job. Memory is steadier; it moves with
// throughput only on serve-durable, whose server keeps every finished
// job's checkpoints.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
}

// perLayer is printed for every workload by a traced run. Replayed
// layers are measured on the workload's own sampled inputs; the
// serving-path counts are 0 on workloads that never take that path.
var perLayer = []metricDef{
	{"serve.decode_us", "us", "lower", 0},
	{"apps.build_us", "us", "lower", 0},
	{"app.program_us", "us", "lower", 0},
	{"jit.compile_us", "us", "lower", 0},
	{"jit.compile_share", "ratio", "lower", 0},
	{"core.run_us_p50", "us", "lower", 0},
	{"core.memo_hit_ratio", "ratio", "higher", 0},
	{"sim.instrs", "count", "lower", 0},
	{"sim.cycles", "count", "lower", 0},
	{"machine.ns_per_sim_instr", "ns", "lower", 0},
	{"machine.ns_per_sim_cycle", "ns", "lower", 0},
	{"net.routed_ns_per_sim_instr", "ns", "lower", 0},
	{"net.constant_ns_per_sim_instr", "ns", "lower", 0},
	{"metrics.collect_slowdown", "ratio", "lower", 0},
	{"metrics.encode_us", "us", "lower", 0},
	{"snap.encode_us", "us", "lower", 0},
	{"snap.kb", "KB", "lower", 0},
	{"journal.append_ms", "ms", "lower", 0},
	{"journal.kb_per_job", "KB", "lower", 0},
	{"journal.ckpts_per_job", "count", "lower", 0},
	{"sse.events_per_job", "count", "lower", 0},
	{"serve.resp_kb", "KB", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	{"runtime.gc_cpu_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// spanLayer is the serving-path split the traced run prints and
// records with -out, but does not put in the result line: each is a
// time that exists only on the workloads taking that path, and would
// read a constant 0 on the others.
var spanLayer = []metricDef{
	{"client.self_us_p50", "us", "lower", 0},
	{"serve.handler_us_p50", "us", "lower", 0},
	{"serve.handler_us_p90", "us", "lower", 0},
	{"serve.glue_us_p50", "us", "lower", 0},
	{"serve.admission_wait_ms_per_op", "ms", "lower", 0},
	{"cluster.forward_us_p50", "us", "lower", 0},
	{"cluster.probes_per_s", "1/s", "lower", 0},
	{"jit.compile_total_ms", "ms", "lower", 0},
	{"core.run_total_ms", "ms", "lower", 0},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks defs out of vals, naming any that are absent.
func collect(defs []metricDef, vals map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
