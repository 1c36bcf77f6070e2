package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mtsim/internal/serve"
	"mtsim/internal/serve/client"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// setups is how many times the workload is set up; the median time
	// is reported and the last set-up is the one measured.
	setups int
	// scale multiplies the op counts and the replay sample's 50-op
	// floor: 1 in real runs, smaller in the smoke test.
	scale float64
}

// outcome is one run's result line plus what the report adds to it.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// extra is the traced run's span split and ratio bases.
	extra map[string]value
	// missing names result-line metrics the run could not report.
	missing []string
}

// reservoirSize bounds the latency sample a phase keeps. The phase
// records into memory allocated before it starts and never grown: the
// warm workloads' program keeps a heap of a few MB, so a recorder that
// grew with every op would slow the garbage collector's pace as the run
// went on, and the throughput would drift with the benchmark's own
// bookkeeping.
const reservoirSize = 20_000

// phase is one closed-loop measuring period. Its throughput is ops over
// dur, which ends when the last unit does.
type phase struct {
	dur       time.Duration
	lats      *reservoir // ms; +Inf for failed ops
	ops       int
	failed    int
	instrs    int64
	cpu       time.Duration
	allocs    uint64
	allocB    uint64
	gcCPU     float64
	totalCPU  float64
	maxRSSMiB float64
}

// runPhase runs units from next on clients goroutines, each starting a
// new unit only while d has not elapsed, and waits for all of them.
func runPhase(ctx context.Context, e env, tr *tracer, clients int, next *atomic.Int64, d time.Duration, seed uint64) (*phase, error) {
	p := &phase{lats: newReservoir(reservoirSize, seed)}
	cpu0, rt0 := cpuTime(), readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				r := e.do(ctx, tr, int(next.Add(1)-1))
				lat := r.lat.Seconds() * 1e3
				if r.failed > 0 {
					lat = math.Inf(1)
				}
				mu.Lock()
				p.lats.add(lat)
				p.ops += r.ops
				p.failed += r.failed
				p.instrs += r.instrs
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.dur = time.Since(start)
	p.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	p.allocs, p.allocB = rt1.allocs-rt0.allocs, rt1.allocB-rt0.allocB
	p.gcCPU, p.totalCPU = rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU
	p.maxRSSMiB = maxRSSMiB()
	return p, ctx.Err()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

type rtSample struct {
	allocs, allocB  uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return rtSample{allocs: s[0].Value.Uint64(), allocB: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64()}
}

// run sets the workload up cfg.setups times, measures it for
// cfg.seconds, checks its outputs and, when traced, replays its layers.
// It writes a human-readable report to rep and returns the result.
func run(ctx context.Context, cfg runConfig, rep io.Writer) (out *outcome, err error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	l := w.list(cfg.seed, max(1, int(math.Round(float64(w.nominal)*cfg.scale))))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fmt.Fprintf(rep, "# workbench workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var setups []float64
	var e env
	defer func() {
		if e != nil {
			err = errors.Join(err, e.close())
		}
	}()
	for k := 0; k < cfg.setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = w.setup(ctx, cfg.seed, l, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC() // the discarded set-ups' garbage is not the measured phase's
	d := time.Duration(cfg.seconds * float64(time.Second))
	out = &outcome{}
	vals := map[string]float64{}
	if cfg.trace {
		if err := runTraced(ctx, cfg, w, l, e, tr, d, out, vals, rep); err != nil {
			return nil, err
		}
	} else {
		var next atomic.Int64
		p, err := runPhase(ctx, e, nil, w.clients, &next, d, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.Attempted, out.Failed = p.ops, p.failed
		endToEndValues(vals, setups, p, rep)
	}

	checkFailed, err := e.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	out.Failed += checkFailed

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out.extra, _ = collect(spanLayer, vals)
	}
	var missing []string
	out.Metrics, missing = collect(defs, vals)
	out.missing = append(out.missing, missing...)
	out.Correct = out.Failed == 0 && out.Attempted > 0
	printValues(rep, defs, out.Metrics)
	if cfg.trace {
		printValues(rep, spanLayer, out.extra)
	}
	return out, nil
}

// runTraced measures half of d untraced and half with spans on, then
// replays the layers on the seeded sample and writes the span file. It
// fills out's counts and vals with the per-layer metrics.
func runTraced(ctx context.Context, cfg runConfig, w *workload, l *opList, e env, tr *tracer,
	d time.Duration, out *outcome, vals map[string]float64, rep io.Writer) error {
	before, err := usage(ctx, e)
	if err != nil {
		return err
	}
	var next atomic.Int64
	plain, err := runPhase(ctx, e, tr, w.clients, &next, d/2, cfg.seed)
	if err != nil {
		return err
	}
	tr.on.Store(true)
	traced, err := runPhase(ctx, e, tr, w.clients, &next, d/2, cfg.seed)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	after, err := usage(ctx, e)
	if err != nil {
		return err
	}
	out.Attempted, out.Failed = plain.ops+traced.ops, plain.failed+traced.failed
	rate := func(p *phase) float64 { return float64(p.ops) / p.dur.Seconds() }
	fmt.Fprintf(rep, "# untraced half: %d ops, %.4g ops/s; traced half: %d ops, %.4g ops/s\n",
		plain.ops, rate(plain), traced.ops, rate(traced))
	vals["trace.overhead_pct"] = 100 * (rate(plain) - rate(traced)) / rate(plain)
	vals["runtime.allocs_per_op"] = ratio(float64(plain.allocs), float64(plain.ops))
	vals["runtime.alloc_kb_per_op"] = ratio(float64(plain.allocB)/1024, float64(plain.ops))
	vals["runtime.gc_cpu_pct"] = 100 * ratio(plain.gcCPU, plain.totalCPU)
	executed := int(next.Load())
	if w.mode == modeLibrary {
		executed *= sweepChunk
	}
	vals["core.memo_hit_ratio"] = memoHitRatio(w, l, executed)
	vals["serve.admission_wait_ms_per_op"] = ratio(float64(after.QueueMS-before.QueueMS), float64(after.Jobs-before.Jobs))
	if err := journalValues(vals, e); err != nil {
		return err
	}

	rp, err := runReplays(ctx, w.mode, l, replaySample(cfg.seed, l, max(2, int(50*cfg.scale))), e.memo())
	if err != nil {
		return err
	}
	layer, missing := rp.layerMetrics()
	out.missing = append(out.missing, missing...)
	for k, v := range layer {
		vals[k] = v
	}
	spans := tr.recorded()
	spanValues(vals, spans, rp, l, w.mode, traced.dur, tr.probes.Load())
	printSelfTable(rep, spans)
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("workbench-trace-%s-%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(rep, "# %d spans written to %s\n", len(spans), path)
	return nil
}

// endToEndValues derives the end-to-end metrics of an untraced phase.
func endToEndValues(vals map[string]float64, setups []float64, p *phase, rep io.Writer) {
	lats := p.lats.sorted()
	fmt.Fprintf(rep, "# set-up %d times: %v s\n", len(setups), setups)
	fmt.Fprintf(rep, "# measured %d ops in %.3f s; latency percentiles over %d of %d samples\n",
		p.ops, p.dur.Seconds(), len(lats), p.lats.seen)
	vals["setup_s"] = median(setups)
	vals["ops_per_s"] = float64(p.ops) / p.dur.Seconds()
	if v, ok := percentile(lats, 0.5); ok {
		vals["latency_p50_ms"] = v
	}
	if v, ok := percentile(lats, 0.9); ok {
		vals["latency_p90_ms"] = v
	}
	vals["sim_minstr_per_s"] = float64(p.instrs) / p.dur.Seconds() / 1e6
	vals["cpu_ms_per_op"] = ratio(p.cpu.Seconds()*1e3, float64(p.ops))
	vals["max_rss_mb"] = p.maxRSSMiB
}

// usage reads the anonymous tenant's usage from the node that runs the
// work (zero for the sweep, which has no server).
func usage(ctx context.Context, e env) (serve.TenantUsage, error) {
	st := e.stack()
	if st == nil {
		return serve.TenantUsage{}, nil
	}
	hz, err := client.New(st.owner.ts.URL).GetHealthz(ctx)
	if err != nil {
		return serve.TenantUsage{}, fmt.Errorf("healthz: %w", err)
	}
	for _, t := range hz.Tenants {
		if t.Tenant == serve.DefaultTenant {
			return t, nil
		}
	}
	return serve.TenantUsage{}, nil
}

// memoHitRatio is the share of the executed ops' simulations the
// session memo answers: the servers' memo is keyed by configuration
// and warmed with the pool at set-up, so the ratio follows from the op
// list; the sweep's memo is fresh for every batch call.
func memoHitRatio(w *workload, l *opList, executed int) float64 {
	seen := make(map[spec]bool)
	if w.mode == modeWarm {
		for _, s := range l.specs {
			seen[s] = true
		}
	}
	hits, total := 0, 0
	for i := 0; i < executed; i++ {
		if w.mode == modeLibrary && i%sweepChunk == 0 {
			clear(seen)
		}
		for _, s := range l.opSpecs(i) {
			if seen[s] {
				hits++
			}
			seen[s] = true
			total++
		}
	}
	return ratio(float64(hits), float64(total))
}

// journalValues reports the durable workload's journal and stream
// volume per finished job (zero elsewhere).
func journalValues(vals map[string]float64, e env) error {
	for _, k := range []string{"journal.kb_per_job", "journal.ckpts_per_job", "sse.events_per_job"} {
		vals[k] = 0
	}
	se, ok := e.(*serveEnv)
	if !ok || se.mode != modeDurable {
		return nil
	}
	jobs := float64(se.jobsDone.Load())
	b, err := se.st.journalBytes()
	if err != nil {
		return err
	}
	var ckpts int64
	for _, nd := range se.st.nodes {
		ckpts += nd.srv.CheckpointsWritten()
	}
	vals["journal.kb_per_job"] = ratio(float64(b)/1024, jobs)
	vals["journal.ckpts_per_job"] = ratio(float64(ckpts), jobs)
	vals["sse.events_per_job"] = ratio(float64(se.events.Load()), jobs)
	return nil
}

// spanValues derives the serving-path split from the traced half's
// spans. The front handler is the one the client called; the handler
// that did the work is the one that forwarded nothing, and its glue is
// what remains after the replayed decode, apps.New and session call.
func spanValues(vals map[string]float64, spans []span, rp *replay, l *opList, mode serveMode, dur time.Duration, probes int64) {
	self := selfTimes(spans)
	calls := make(map[int64]bool)
	forwarded := make(map[int64]bool)
	for _, s := range spans {
		switch s.Name {
		case spanCall:
			calls[s.ID] = true
		case spanForward:
			forwarded[s.Parent] = true
		}
	}
	var clientSelf, front, fwd, glue []float64
	var bytes int64
	for _, s := range spans {
		us := float64(s.End-s.Start) / 1e3
		switch {
		case s.Name == spanCall:
			clientSelf = append(clientSelf, float64(self[s.ID])/1e3)
		case s.Name == spanForward:
			fwd = append(fwd, us)
		case s.Name == spanHandler && s.Route == "POST /v2/jobs" && s.Op >= 0:
			if calls[s.Parent] {
				front = append(front, us)
				bytes += s.Bytes
			}
			if !forwarded[s.ID] && (mode == modeWarm || mode == modeCold) {
				if r := rp.specs[l.opSpecs(int(s.Op))[0]]; r != nil {
					glue = append(glue, us-r.handlerCall(mode)/1e3)
				}
			}
		}
	}
	put := func(name string, xs []float64, p float64) {
		sort.Float64s(xs)
		if v, ok := percentile(xs, p); ok {
			vals[name] = v
		}
	}
	put("client.self_us_p50", clientSelf, 0.5)
	put("serve.handler_us_p50", front, 0.5)
	put("serve.handler_us_p90", front, 0.9)
	put("serve.glue_us_p50", glue, 0.5)
	put("cluster.forward_us_p50", fwd, 0.5)
	vals["serve.resp_kb"] = ratio(float64(bytes)/1024, float64(len(front)))
	vals["cluster.probes_per_s"] = float64(probes) / dur.Seconds()
}

func printSelfTable(rep io.Writer, spans []span) {
	fmt.Fprintf(rep, "# %-16s %8s %12s %14s %12s\n", "span", "count", "mean_us", "self_p50_us", "self_ms")
	for _, r := range selfTable(spans) {
		p50 := "n/a"
		if r.selfOK {
			p50 = fmt.Sprintf("%.2f", r.selfP50US)
		}
		fmt.Fprintf(rep, "# %-16s %8d %12.2f %14s %12.1f\n", r.name, r.n, r.meanUS, p50, r.selfMS)
	}
}

func printValues(rep io.Writer, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(rep, "%-32s %14.6g %s\n", d.Name, v.Value, d.Unit)
		} else {
			fmt.Fprintf(rep, "%-32s %14s %s\n", d.Name, "n/a", d.Unit)
		}
	}
}
