// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale quick|medium|full] [-latency N] [-maxmt N] [-j N]
//	            [-ablations] [-faults R] [-jitter N] [-seed N]
//	            [-kernels LIST] [-topologies LIST] [-metrics FILE]
//	            [-pprof ADDR] [-report FILE] [-list] [id ...]
//
// With no ids, every paper artifact runs in paper order, followed by
// the ablations with -ablations. Ids are the paper artifact names
// (figure1..figure4, table1..table8) and the ablation names
// (ablation-latency, ablation-faults, ...); -list prints them all.
// -report writes every experiment as EXPERIMENTS.md-style markdown and
// ignores the ids.
//
// -j sets the session's worker width (default GOMAXPROCS; 1 runs
// sequentially). Independent experiments render into per-experiment
// buffers and simulations deduplicate through the session memo, so the
// output is byte-identical at every -j setting.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mtsim"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "problem scale: quick, medium or full")
	latency := flag.Int("latency", mtsim.DefaultLatency, "network round-trip latency in cycles")
	maxMT := flag.Int("maxmt", 0, "cap on multithreading-level searches (0 = scale default)")
	jobs := flag.Int("j", 0, "worker goroutines for simulations and rendering (0 = GOMAXPROCS)")
	ablations := flag.Bool("ablations", false, "also run the ablation/extension experiments")
	report := flag.String("report", "", "write an EXPERIMENTS.md-style markdown report to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	faults := flag.Float64("faults", 0.05, "harshest fault rate the robustness ablation sweeps to, in [0,1)")
	jitter := flag.Int("jitter", 0, "latency jitter in cycles for the robustness ablation (0 = half the latency)")
	seed := flag.Uint64("seed", 1, "seed for the robustness ablation's deterministic fault streams")
	kernels := flag.String("kernels", "", "comma-separated irregular kernels for the topology ablation (default: all of "+strings.Join(mtsim.IrregularAppNames(), ",")+")")
	topologies := flag.String("topologies", "", "comma-separated topologies for the topology ablation (default: "+strings.Join(mtsim.TopologyNames(), ",")+")")
	metricsOut := flag.String("metrics", "", "collect cycle-accounting metrics on every simulation and write the aggregate JSON to this file (\"-\" for stdout)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar (engine counters) on this address, e.g. localhost:6060")
	flag.Parse()

	if *jobs < 0 {
		fatalf("-j %d: the worker count cannot be negative", *jobs)
	}

	if *list {
		for _, e := range mtsim.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		for _, e := range mtsim.AblationExperiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	scale, err := mtsim.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C / SIGTERM cancels the sweep cooperatively: in-flight
	// simulations abort and the command exits instead of finishing a
	// full-scale render nobody is waiting for.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := []mtsim.ExpOption{
		mtsim.WithScale(scale),
		mtsim.WithLatency(*latency),
		mtsim.WithFaults(*faults, *jitter, *seed),
		mtsim.WithMetrics(*metricsOut != ""),
		mtsim.WithContext(ctx),
	}
	if *maxMT > 0 {
		opts = append(opts, mtsim.WithMaxMT(*maxMT))
	}
	if *kernels != "" {
		opts = append(opts, mtsim.WithKernels(strings.Split(*kernels, ",")...))
	}
	if *topologies != "" {
		opts = append(opts, mtsim.WithTopologies(strings.Split(*topologies, ",")...))
	}
	if *jobs > 0 {
		opts = append(opts, mtsim.WithJobs(*jobs))
	}
	o := mtsim.NewExp(os.Stdout, opts...)
	// The same option validation the mtsimd experiments endpoint runs.
	if err := o.Validate(); err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		servePprof(*pprofAddr, o.Sess)
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		if err := mtsim.WriteExperimentReport(o, f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *report)
		emitMetrics(*metricsOut, o)
		return
	}

	var selected []*mtsim.Experiment
	if flag.NArg() == 0 {
		selected = mtsim.Experiments()
		if *ablations {
			selected = append(selected, mtsim.AblationExperiments()...)
		}
	} else {
		for _, id := range flag.Args() {
			e, err := mtsim.ExperimentByID(id)
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("# Boothe & Ranade (ISCA 1992) reproduction — %s scale, latency %d\n", scale, o.Latency)
	fmt.Printf("# every simulated run is verified against a host-computed reference\n\n")
	outs, times, err := mtsim.RenderExperiments(o, selected)
	if err != nil {
		fatal(err)
	}
	for i, e := range selected {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		fmt.Printf("   paper: %s\n\n", e.Paper)
		os.Stdout.WriteString(outs[i])
		fmt.Printf("   [%s regenerated in %v]\n\n", e.ID, times[i].Round(time.Millisecond))
	}
	emitMetrics(*metricsOut, o)
}

// emitMetrics writes the session's aggregate cycle accounting (the
// -metrics flag): the stable-schema JSON to path plus a rendered
// summary on stdout. A no-op when the flag was not given, keeping the
// default output byte-identical.
func emitMetrics(path string, o *mtsim.ExpOptions) {
	if path == "" {
		return
	}
	bm := o.SessionMetrics()
	if err := mtsim.WriteMetricsFile(path, bm); err != nil {
		fatal(err)
	}
	if path != "-" {
		mtsim.WriteMetricsSummary(os.Stdout, bm)
		fmt.Printf("metrics written to %s\n", path)
	}
}

// servePprof exposes net/http/pprof plus expvar engine counters on
// addr, for profiling long experiment sweeps.
func servePprof(addr string, sess *mtsim.Session) {
	expvar.Publish("mtsim.sims", expvar.Func(func() any { return sess.SimCount() }))
	expvar.Publish("mtsim.memo_hits", expvar.Func(func() any { return sess.MemoHits() }))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
		}
	}()
	fmt.Printf("# pprof/expvar listening on http://%s/debug/pprof\n", addr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
