// Command workbench is the repository's workload benchmark: five seeded
// workloads, from a library sweep to a two-node fleet, each driven in a
// closed loop through the public entry points of its layers, with every
// output checked. BENCHMARK.json at the repository root names it.
//
// # Running
//
// From the repository root (the script builds into .bench_build/ and
// keeps every file the run writes there):
//
//	bash workbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//	bash workbench/run.sh --workload serve-warm --trace 1     # per-layer split
//	bash workbench/run.sh --workload fleet-warm --out runs.jsonl
//	bash workbench/run.sh compare base.jsonl current.jsonl
//
// The default seed is 1. Each run measures one workload in its own
// process, so setup_s and max_rss_mb belong to that workload alone. It
// prints a report, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. The report header records the
// seed, nproc, GOMAXPROCS and the Go version.
//
// # Load shape
//
// The reference host has two CPUs. Serving workloads run two
// closed-loop clients over two keep-alive connections against servers
// with serve.Config{Workers: 2}; the sweep is one caller whose batch
// calls run on Session.Workers = 2. The seed generates every input with
// PCG; the program receives only the generated requests. Apps are
// uniform over apps.AllNames(), models over switch-on-load,
// switch-on-use, explicit-switch, switch-on-miss and
// conditional-switch, processors over {4, 8, 16}, threads over
// {1, 2, 4}, latency over 100..400 in steps of 5, and the topology is
// constant with probability 2/5, else mesh, fattree or dragonfly. Cache
// models always get the constant network (see generator). Each value
// comes from a seeded shuffled deck, so every prefix of a list — all a
// time-bounded run gets through — holds a balanced mix.
//
// # Workloads
//
//   - sweep: unique jobs through Session.RunBatchContext, 8 per call,
//     Verify on, a fresh session per call. The researcher's path: all
//     time is in the simulator (program build, jit, machine, cache,
//     net); the serving plane is never touched.
//   - serve-warm: sync POST /v2/jobs runs drawn from a pool of 20
//     configurations (every app twice) warmed at set-up, so every run is
//     a memo hit. No simulation happens: the time is HTTP, decode,
//     apps.New, tenant admission, the gate, the session cache and
//     encoding — where allocation and codec work shows.
//   - serve-cold-metrics: unique sync runs with "metrics": true. The
//     interpreter plus the internal/metrics collector and ~11 KB
//     responses; the compiled engine and jit.Compile are bypassed, so a
//     compile-cache change must not move it.
//   - serve-durable: async batches of two entries, each submitted with
//     Idempotency-Key bench-<seed>-<i> to a journaling server
//     (CheckpointEvery 100000, journal in a temp dir) and awaited with
//     client.StreamEvents; latency runs from the submit to the done
//     event. The only workload with snapshots, journal fsync, the
//     dispatcher and SSE. It writes about 1.8 MB of journal per job.
//   - fleet-warm: the serve-warm pool against two in-process nodes with
//     EnableJournal and EnableCluster; the client fronts the node that
//     is not RouteOwner(cluster.SessionRouteKey("quick")), so every run
//     takes exactly one forward hop: the forward path and the hedge
//     latency tracker.
//
// Temp journals are removed when a run ends, also on SIGINT.
//
// # End-to-end metrics (untraced run, every workload)
//
//	metric            unit      bound  meaning
//	setup_s           s         25%    median of 5 set-ups (stack, warm-up, references)
//	ops_per_s         ops/s     25%    ops completed over the measured time
//	latency_p50_ms    ms        25%    client latency median (sweep: one batch call)
//	latency_p90_ms    ms        25%    client latency p90
//	sim_minstr_per_s  Minstr/s  25%    simulated instructions of the results returned, per host second
//	cpu_ms_per_op     ms        25%    process CPU time per op
//	max_rss_mb        MB        20%    peak resident set of the process
//
// A bound is the share by which a metric's median over repeated runs
// may get worse before a change counts as a regression. On the shared
// two-CPU reference host repeated runs of the same sweep seed took from
// 10.9 to 16.0 ms of CPU per job, so the bounds sit at the widest the
// benchmark contract allows rather than at 10%. A percentile
// is reported only when at least 10 samples lie beyond it; latencies
// are a uniform sample of at most 20000 ops, kept in fixed memory. An
// op fails on a transport error, a non-2xx reply or a wrong output; a
// failed op counts as missing every latency limit. Outputs are checked
// against the library: every serve-warm and fleet-warm response
// against a core.Session reference computed at set-up, a seeded 5% of
// the serve-cold-metrics and serve-durable ops after the measured
// phase, and the sweep through Verify.
//
// # Per-layer metrics (traced run)
//
// A traced run measures half its time untraced and half with spans on,
// then replays a seeded 5% of the op list (at least 50 ops) layer by
// layer, so replay cost never enters the measured phases. Spans come
// from seams the benchmark owns: the client call, a middleware around
// each node's Server.Handler(), and each node's cluster.Config.Transport.
// The program carries no tracing code. Spans (name, op, parent, start,
// end in ns) are written to .bench_build/workbench-trace-<workload>-<seed>.jsonl
// and summarized as self time per name. Each metric, how it is
// measured, and what it should move:
//
//	serve.decode_us          replay: json.Unmarshal into V2JobRequest + ToMachine   serve-warm latency_p50_ms
//	apps.build_us            replay: apps.New                                       serve-warm latency_p50_ms
//	app.program_us           replay: App.ProgramFor with the grouping pass           sweep, serve-cold-metrics ops_per_s
//	jit.compile_us           replay: jit.Compile                                     sweep ops_per_s
//	jit.compile_share        Σcompile ÷ Σcore.run (bases printed as *_total_ms)      sweep ops_per_s
//	core.run_us_p50          replay: Session.RunContext on a fresh session           sweep ops_per_s
//	core.memo_hit_ratio      memo hits per simulation asked for (~0 sweep, 1 warm)   serve-warm latency_p50_ms
//	sim.instrs, sim.cycles   exact simulated work of the replay sample               identical across runs of a seed
//	machine.ns_per_sim_*     replayed run time per simulated instruction / cycle     sweep sim_minstr_per_s
//	net.routed_ns_per_sim_instr, net.constant_ns_per_sim_instr
//	                         the same, split by topology                             sweep ops_per_s
//	metrics.collect_slowdown replay: metrics-on ÷ metrics-off run time               serve-cold-metrics ops_per_s
//	metrics.encode_us        replay: json.Marshal of the RunMetrics                  serve-cold-metrics latency
//	snap.encode_us, snap.kb  replay: NewMachine, RunUntil(100000), Snapshot          serve-durable ops_per_s
//	journal.append_ms        replay: Journal.AppendCkpt, fsync included             serve-durable latency_p50_ms
//	journal.kb_per_job, journal.ckpts_per_job, sse.events_per_job
//	                         exact counts                                            serve-durable ops_per_s
//	serve.resp_kb            mean response size                                      serve-cold-metrics latency_p50_ms
//	runtime.allocs_per_op, runtime.alloc_kb_per_op, runtime.gc_cpu_pct
//	                         untraced half                                           cpu_ms_per_op, ops_per_s on the warm workloads
//	trace.overhead_pct       traced against untraced ops/s                           (the cost of tracing)
//
// The serving-path split is printed and recorded with -out but kept out
// of the result line, because it is a time only on the workloads that
// take that path:
//
//	client.self_us_p50             client call minus the fronting handler  serve-warm latency_p50_ms
//	serve.handler_us_p50, _p90     handler spans of POST /v2/jobs           serve-warm, serve-cold-metrics latency
//	serve.glue_us_p50              handler − replayed decode, apps.New and session call
//	                               (admission, gate, session cache, encode) serve-warm latency_p50_ms, cpu_ms_per_op
//	serve.admission_wait_ms_per_op Δ tenants[].queue_ms ÷ Δ jobs on /v2/healthz
//	                                                                        latency_p90_ms on serve-cold-metrics, serve-durable
//	cluster.forward_us_p50         forward spans from the transport wrapper fleet-warm latency_p50_ms
//	cluster.probes_per_s           membership pings through the same wrapper fleet-warm cpu_ms_per_op
//
// compare reads records appended with -out: per workload it prints each
// end-to-end metric's median and quartiles over the repeated runs with
// a verdict against its bound, then the per-layer medians side by side,
// and exits 1 on a regression.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeed is the seed runs use unless told otherwise.
const defaultSeed = 1

// setupRuns is how many times a run sets its workload up; the median
// is reported as setup_s.
const setupRuns = 5

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", defaultSeed, "seed the op lists are generated from")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: print the end-to-end metrics; 1: a traced run printing the per-layer metrics")
	traceDir := flag.String("trace-dir", ".", "directory the traced run writes its span file to")
	out := flag.String("out", "", "append the run's record to this JSON-lines file, for compare")
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	// An interrupt cancels the run; its deferred teardown still drains
	// the servers and removes the temp journals before the exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, setups: setupRuns, scale: 1}
	res, err := run(ctx, cfg, os.Stdout)
	stop()
	if err != nil {
		fatalf("%v", err)
	}
	if len(res.missing) > 0 {
		fatalf("too few samples to report %v; measure longer", res.missing)
	}
	if *out != "" {
		rec := &record{Schema: recordSchema, Workload: *workload, Seed: *seed, Trace: cfg.trace,
			Seconds: *seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics, Extra: res.extra}
		if err := appendRecord(*out, rec); err != nil {
			fatalf("-out: %v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "workbench: "+format+"\n", args...)
	os.Exit(1)
}
