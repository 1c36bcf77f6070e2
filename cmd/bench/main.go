// Command bench is the repeatable performance-regression harness: it
// runs a fixed suite of simulator benchmarks — the event-loop hot loop
// plus one verified run per benchmark application — and reads/writes
// BENCH_*.json records with a stable schema that later PRs append to.
//
// Two kinds of numbers are recorded per benchmark:
//
//   - sim_instrs / sim_cycles: the simulated work. These are
//     deterministic (the simulator is bit-reproducible), so -check
//     compares them exactly on any machine; a mismatch means the
//     simulator's behavior changed, not that the host was slow.
//   - ns_per_op: wall time. Only comparable on the same machine;
//     -timing=false skips measuring it (the CI mode), and -check only
//     enforces the -tolerance bound when both records carry timings.
//
// Usage:
//
//	bench -out BENCH_PR6.json -label pr6          # record
//	bench -baseline BENCH_PR6.json -check         # enforce (exit 1 on regression)
//	bench -baseline BENCH_PR6.json -check -timing=false   # CI: determinism only
//	bench -bench machine-hot-loop -cpuprofile cpu.pprof   # profile one benchmark
//	bench compare BENCH_PR3.json BENCH_PR6.json   # diff two records
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mtsim"
)

// SchemaVersion identifies the BENCH_*.json layout.
const SchemaVersion = 1

// Record is the on-disk benchmark report.
type Record struct {
	Schema int    `json:"schema"`
	Label  string `json:"label,omitempty"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Scale  string `json:"scale"`
	// Timing records whether ns_per_op was measured (false: the
	// determinism-only CI mode wrote zeros).
	Timing     bool          `json:"timing"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// BenchResult is one benchmark's measurements.
type BenchResult struct {
	Name     string `json:"name"`
	Iters    int    `json:"iters"`
	NsPerOp  int64  `json:"ns_per_op"`
	SimInstr int64  `json:"sim_instrs"`
	SimCycle int64  `json:"sim_cycles"`
}

// benchmark is one suite entry: run executes a single operation under
// ctx and reports the simulated work it performed.
type benchmark struct {
	name string
	run  func(ctx context.Context) (simInstr, simCycle int64, err error)
}

// oneRun adapts a single-simulation benchmark body to the suite entry
// signature.
func oneRun(f func(ctx context.Context) (*mtsim.Result, error)) func(context.Context) (int64, int64, error) {
	return func(ctx context.Context) (int64, int64, error) {
		res, err := f(ctx)
		if err != nil {
			return 0, 0, err
		}
		return res.Instrs, res.Cycles, nil
	}
}

// suite builds the fixed benchmark list: the event-loop hot loop
// (verification off, high processor count, so dispatch and scheduling
// dominate), one verified paper-configuration run per application, and
// a session-batch benchmark that times the measurement layer itself
// (memo, singleflight, worker pool) over the context-first batch API.
func suite() []benchmark {
	bs := []benchmark{{
		name: "machine-hot-loop",
		run: oneRun(func(ctx context.Context) (*mtsim.Result, error) {
			a := mtsim.MustNewApp("sieve", mtsim.Quick)
			// DispatchCompiled rather than Auto so the benchmark fails
			// loudly if the compiled engine ever becomes ineligible here
			// instead of silently timing the interpreter.
			cfg := mtsim.Config{Procs: 64, Threads: 4, Model: mtsim.SwitchOnLoad, Latency: 200,
				DispatchMode: mtsim.DispatchCompiled}
			return mtsim.RunContext(ctx, cfg, a.Raw, a.Init.Fill)
		}),
	}, {
		// The same simulation with cycle accounting on, still compiled:
		// a DispatchCompiled run that gets no engine is an error, so the
		// entry fails if metrics ever force the interpreter again, and
		// TestHotLoopVariantsDoIdenticalWork pins that observing the run
		// leaves its simulated work unchanged.
		name: "machine-hot-loop-metrics",
		run: oneRun(func(ctx context.Context) (*mtsim.Result, error) {
			a := mtsim.MustNewApp("sieve", mtsim.Quick)
			cfg := mtsim.Config{Procs: 64, Threads: 4, Model: mtsim.SwitchOnLoad, Latency: 200,
				DispatchMode: mtsim.DispatchCompiled, CollectMetrics: true}
			return mtsim.RunContext(ctx, cfg, a.Raw, a.Init.Fill)
		}),
	}, {
		// The same simulation under the forced interpreter: the pair
		// records the compiled engine's speedup and pins, in the record
		// itself, that both engines do identical simulated work.
		name: "machine-hot-loop-interp",
		run: oneRun(func(ctx context.Context) (*mtsim.Result, error) {
			a := mtsim.MustNewApp("sieve", mtsim.Quick)
			cfg := mtsim.Config{Procs: 64, Threads: 4, Model: mtsim.SwitchOnLoad, Latency: 200,
				DispatchMode: mtsim.DispatchInterpreted}
			return mtsim.RunContext(ctx, cfg, a.Raw, a.Init.Fill)
		}),
	}}
	for _, name := range mtsim.AllAppNames() {
		name := name
		bs = append(bs, benchmark{
			name: "app-" + name,
			run: oneRun(func(ctx context.Context) (*mtsim.Result, error) {
				a := mtsim.MustNewApp(name, mtsim.Quick)
				cfg := mtsim.Config{Procs: 8, Threads: 4, Model: mtsim.ExplicitSwitch, Latency: 200}
				return a.RunContext(ctx, cfg)
			}),
		})
	}
	bs = append(bs, benchmark{
		// A dependent-load kernel on the routed mesh: times the link-queue
		// contention path and pins its simulated work in the record.
		name: "topology-gather-mesh",
		run: oneRun(func(ctx context.Context) (*mtsim.Result, error) {
			a := mtsim.MustNewApp("gather", mtsim.Quick)
			cfg := mtsim.Config{Procs: 16, Threads: 4, Model: mtsim.SwitchOnLoad, Latency: 200}
			cfg.Topology = mtsim.TopologyConfig{Kind: mtsim.TopoMesh}
			return a.RunContext(ctx, cfg)
		}),
	})
	bs = append(bs, benchmark{
		name: "checkpointed-run",
		run: oneRun(func(ctx context.Context) (*mtsim.Result, error) {
			// The checkpoint/restore tax: same simulation as the app
			// benchmarks but pausing and serializing the full machine
			// state every 100k cycles into a discarded sink.
			sess := mtsim.NewSession()
			a := mtsim.MustNewApp("sieve", mtsim.Quick)
			cfg := mtsim.Config{Procs: 8, Threads: 4, Model: mtsim.ExplicitSwitch, Latency: 200}
			return sess.RunCheckpointedContext(ctx, a, cfg, mtsim.CheckpointConfig{
				Interval:     100_000,
				OnCheckpoint: func(int64, []byte) error { return nil },
			})
		}),
	})
	bs = append(bs, benchmark{
		name: "session-batch",
		run: func(ctx context.Context) (int64, int64, error) {
			// A fresh session each iteration so nothing is memoized
			// between operations; Workers pinned so the simulated work
			// is the same at any GOMAXPROCS.
			sess := mtsim.NewSession()
			sess.Workers = 4
			jobs := make([]mtsim.RunJob, 0, len(mtsim.AllAppNames()))
			for _, name := range mtsim.AllAppNames() {
				jobs = append(jobs, mtsim.RunJob{
					App: mtsim.MustNewApp(name, mtsim.Quick),
					Cfg: mtsim.Config{Procs: 4, Threads: 2, Model: mtsim.SwitchOnUse, Latency: 200},
				})
			}
			results, err := sess.RunBatchContext(ctx, jobs)
			if err != nil {
				return 0, 0, err
			}
			var instrs, cycles int64
			for _, r := range results {
				instrs += r.Instrs
				cycles += r.Cycles
			}
			return instrs, cycles, nil
		},
	})
	return bs
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	out := flag.String("out", "", "write the benchmark record as JSON to this file")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json to compare against")
	check := flag.Bool("check", false, "with -baseline: exit 1 on determinism mismatch or timing regression")
	tolerance := flag.Float64("tolerance", 0.10, "with -check: maximum allowed ns/op regression (0.10 = 10%)")
	timing := flag.Bool("timing", true, "measure wall time (disable for cross-machine CI checks)")
	benchtime := flag.Duration("benchtime", 500*time.Millisecond, "minimum measuring time per benchmark")
	label := flag.String("label", "", "free-form label stored in the record")
	benchFilter := flag.String("bench", "", "run only benchmarks whose name matches this regexp")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the runs to this file")
	flag.Parse()

	if *check && *baseline == "" {
		fatalf("-check needs -baseline")
	}
	if *tolerance <= 0 {
		fatalf("-tolerance %v: must be positive", *tolerance)
	}
	var filter *regexp.Regexp
	if *benchFilter != "" {
		var err error
		if filter, err = regexp.Compile(*benchFilter); err != nil {
			fatalf("-bench %q: %v", *benchFilter, err)
		}
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer pf.Close()
	}

	// An interrupted bench exits promptly with the in-flight simulation
	// canceled instead of finishing the whole suite.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	rec := Record{
		Schema: SchemaVersion,
		Label:  *label,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Scale:  "quick",
		Timing: *timing,
	}
	for _, b := range suite() {
		if filter != nil && !filter.MatchString(b.name) {
			continue
		}
		res, err := measure(ctx, b, *timing, *benchtime)
		if err != nil {
			fatalf("%s: %v", b.name, err)
		}
		rec.Benchmarks = append(rec.Benchmarks, res)
		if *timing {
			fmt.Printf("%-24s %4d iters  %12d ns/op  %10d sim-instrs  %10d sim-cycles\n",
				res.Name, res.Iters, res.NsPerOp, res.SimInstr, res.SimCycle)
		} else {
			fmt.Printf("%-24s %10d sim-instrs  %10d sim-cycles\n",
				res.Name, res.SimInstr, res.SimCycle)
		}
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			fatalf("-memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.Lookup("heap").WriteTo(mf, 0); err != nil {
			fatalf("-memprofile: %v", err)
		}
		mf.Close()
	}

	if *out != "" {
		if err := writeRecord(*out, &rec); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("record written to %s\n", *out)
	}
	if *baseline != "" {
		base, err := readRecord(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		if !gate(os.Stdout, os.Stderr, *baseline, base, &rec, *tolerance) && *check {
			os.Exit(1)
		}
	}
}

// gate holds the current record to the baseline at path: it prints a
// note for each entry the baseline lacks, which nothing gates, then
// either every failure (to errOut) or an ok line that counts the entries
// compared. It reports whether the record passed.
func gate(out, errOut io.Writer, path string, base, cur *Record, tolerance float64) bool {
	failures, ungated := compare(base, cur, tolerance)
	for _, name := range ungated {
		fmt.Fprintf(out, "bench: note: %s is not in %s, so nothing gates it\n", name, path)
	}
	for _, f := range failures {
		fmt.Fprintln(errOut, "bench: FAIL:", f)
	}
	if len(failures) > 0 {
		return false
	}
	fmt.Fprintf(out, "baseline %s: ok (%d benchmarks compared, %d not gated)\n", path, len(cur.Benchmarks)-len(ungated), len(ungated))
	return true
}

// compareMain implements the `bench compare A.json B.json` subcommand:
// a side-by-side diff of two records. Simulated work is compared
// exactly (a mismatch is a simulator behavior change); wall time is
// reported as a speedup factor and only *enforced* — against the
// tolerance, exit 1 — when both records measured timing, since ns/op
// from different machines are not comparable.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	tolerance := fs.Float64("tolerance", 0.10, "maximum allowed ns/op regression (0.10 = 10%)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-tolerance F] BASE.json CURRENT.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	if *tolerance <= 0 {
		fatalf("-tolerance %v: must be positive", *tolerance)
	}
	base, err := readRecord(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := readRecord(fs.Arg(1))
	if err != nil {
		fatalf("%v", err)
	}
	byName := make(map[string]BenchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	timing := base.Timing && cur.Timing
	fmt.Printf("%-24s %-14s %14s %14s %9s\n", "benchmark", "sim-work", "base ns/op", "cur ns/op", "speedup")
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			fmt.Printf("%-24s (not in %s)\n", c.Name, fs.Arg(0))
			continue
		}
		work := "identical"
		if c.SimInstr != b.SimInstr || c.SimCycle != b.SimCycle {
			work = "CHANGED"
		}
		if timing && b.NsPerOp > 0 && c.NsPerOp > 0 {
			fmt.Printf("%-24s %-14s %14d %14d %8.2fx\n",
				c.Name, work, b.NsPerOp, c.NsPerOp, float64(b.NsPerOp)/float64(c.NsPerOp))
		} else {
			fmt.Printf("%-24s %-14s %14s %14s %9s\n", c.Name, work, "-", "-", "-")
		}
	}
	if !gate(os.Stdout, os.Stderr, fs.Arg(0), base, cur, *tolerance) {
		return 1
	}
	return 0
}

// measure runs one benchmark: a first iteration captures the simulated
// work (deterministic, so one run suffices); with timing on, further
// iterations run until benchtime has elapsed.
func measure(ctx context.Context, b benchmark, timing bool, benchtime time.Duration) (BenchResult, error) {
	start := time.Now()
	instrs, cycles, err := b.run(ctx)
	if err != nil {
		return BenchResult{}, err
	}
	out := BenchResult{Name: b.name, Iters: 1, SimInstr: instrs, SimCycle: cycles}
	if !timing {
		return out, nil
	}
	elapsed := time.Since(start)
	for elapsed < benchtime && ctx.Err() == nil {
		if _, _, err := b.run(ctx); err != nil {
			return BenchResult{}, err
		}
		out.Iters++
		elapsed = time.Since(start)
	}
	out.NsPerOp = elapsed.Nanoseconds() / int64(out.Iters)
	return out, nil
}

// compare returns one message per violated contract between a baseline
// record and the current one, and the names of the current entries the
// baseline lacks. Simulated work must match exactly; wall time is only
// held to the tolerance when both records measured it.
func compare(base, cur *Record, tolerance float64) (fails, ungated []string) {
	byName := make(map[string]BenchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			// New benchmarks are allowed, but a baseline that predates
			// one cannot gate it.
			ungated = append(ungated, c.Name)
			continue
		}
		if c.SimInstr != b.SimInstr || c.SimCycle != b.SimCycle {
			fails = append(fails, fmt.Sprintf(
				"%s: simulated work changed: instrs %d -> %d, cycles %d -> %d (the simulator is deterministic; this is a behavior change, not noise)",
				c.Name, b.SimInstr, c.SimInstr, b.SimCycle, c.SimCycle))
		}
		if base.Timing && cur.Timing && b.NsPerOp > 0 && c.NsPerOp > 0 {
			if ratio := float64(c.NsPerOp)/float64(b.NsPerOp) - 1; ratio > tolerance {
				fails = append(fails, fmt.Sprintf(
					"%s: ns/op regressed %.1f%% (%d -> %d, tolerance %.0f%%)",
					c.Name, 100*ratio, b.NsPerOp, c.NsPerOp, 100*tolerance))
			}
		}
	}
	for _, b := range base.Benchmarks {
		found := false
		for _, c := range cur.Benchmarks {
			if c.Name == b.Name {
				found = true
				break
			}
		}
		if !found {
			fails = append(fails, fmt.Sprintf("%s: present in baseline but not run", b.Name))
		}
	}
	return fails, ungated
}

func writeRecord(path string, rec *Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this binary reads %d", path, rec.Schema, SchemaVersion)
	}
	return &rec, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
