package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/serve"
	"mtsim/internal/serve/client"
)

// workload is one benchmark input set and the stack it drives.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// nominal is the op count the workload is sized for: about 12 s of
	// work on the reference host, the base of the 5% replay sample.
	nominal int
	// clients is the closed-loop width: the sweep is one caller whose
	// batch calls fan out over Session.Workers = 2.
	clients int
	list    func(seed uint64, nominal int) *opList
	setup   func(ctx context.Context, seed uint64, l *opList, tr *tracer) (env, error)
	// mode selects the request body and session call the replays model.
	mode serveMode
}

// serveMode is how a workload's op reaches the session.
type serveMode int

const (
	modeLibrary serveMode = iota // core.Session called directly
	modeWarm                     // sync run, answered from the memo
	modeCold                     // sync run with metrics, simulated
	modeDurable                  // async batch, journaled and checkpointed
)

// sweepChunk is how many jobs one RunBatchContext call of the sweep
// carries: a researcher's batch, long enough to keep both session
// workers busy, short enough to give every run a p90 over 100+ calls.
const sweepChunk = 8

var workloads = []*workload{{
	name:    "sweep",
	why:     "library path: unique verified jobs via Session.RunBatchContext, all time in the simulator; cache models only on the constant network, as routed runs take minutes (simulator cliff)",
	nominal: 3000,
	clients: 1,
	list:    func(seed uint64, n int) *opList { return uniqueList(seed, n, 1) },
	setup:   setupSweep,
	mode:    modeLibrary,
}, {
	name:    "serve-warm",
	why:     "memo-hit sync POST /v2/jobs runs from a 20-config pool: no simulation, so HTTP, decode, apps.New, admission, gate, session cache and encode show",
	nominal: 100_000,
	clients: loadClients,
	list:    func(seed uint64, n int) *opList { return poolList(seed, warmPool, n) },
	setup: func(ctx context.Context, seed uint64, l *opList, tr *tracer) (env, error) {
		return setupWarm(ctx, l, tr, 1)
	},
	mode: modeWarm,
}, {
	name:    "serve-cold-metrics",
	why:     "unique sync runs with metrics on: interpreter plus metrics collector and ~11 KB responses; bypasses the compiled engine and jit.Compile",
	nominal: 1000,
	clients: loadClients,
	list:    func(seed uint64, n int) *opList { return uniqueList(seed, n, 1) },
	setup:   setupCold,
	mode:    modeCold,
}, {
	name:    "serve-durable",
	why:     "async 2-entry batches with idempotency keys on a journaling server, awaited over SSE: snapshots, journal fsync, dispatcher and SSE",
	nominal: 300,
	clients: loadClients,
	list:    func(seed uint64, n int) *opList { return uniqueList(seed, n, 2) },
	setup:   setupDurable,
	mode:    modeDurable,
}, {
	name:    "fleet-warm",
	why:     "the serve-warm pool on two clustered nodes, client fronting the non-owner so every run takes exactly one forward hop",
	nominal: 60_000,
	clients: loadClients,
	list:    func(seed uint64, n int) *opList { return poolList(seed, warmPool, n) },
	setup: func(ctx context.Context, seed uint64, l *opList, tr *tracer) (env, error) {
		return setupWarm(ctx, l, tr, 2)
	},
	mode: modeWarm,
}}

// warmPool is how many configurations the warm workloads draw from.
const warmPool = 20

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opResult reports one closed-loop unit of work.
type opResult struct {
	ops    int           // ops it carried
	failed int           // of which failed: error, non-2xx, wrong output
	lat    time.Duration // client-visible latency
	instrs int64         // simulated instructions of the results returned
}

// env is one set-up workload.
type env interface {
	// do runs unit i: op i, or chunk i of the sweep.
	do(ctx context.Context, tr *tracer, i int) opResult
	// check compares the outputs sampled during the run against the
	// library and returns how many differ.
	check(ctx context.Context) (failed int, err error)
	// memo is the library session holding the warm pool (nil
	// otherwise): the replays time memo hits on it.
	memo() *core.Session
	// stack is the serving side (nil for the sweep).
	stack() *stack
	close() error
}

// --- sweep ---------------------------------------------------------------

// sweepEnv runs the researcher's path: the apps are built (and their
// grouped variants and ideal baselines computed) once at set-up, then
// every batch call gets a fresh session, so no job is ever a memo hit
// however long the run.
type sweepEnv struct {
	l    *opList
	apps map[string]*app.App
	base map[string]int64
}

func setupSweep(ctx context.Context, seed uint64, l *opList, tr *tracer) (env, error) {
	e := &sweepEnv{l: l, apps: make(map[string]*app.App), base: make(map[string]int64)}
	sess := core.NewSession()
	for _, name := range apps.AllNames() {
		a, err := apps.New(name, app.Quick)
		if err != nil {
			return nil, err
		}
		if _, _, err := a.Grouped(); err != nil {
			return nil, fmt.Errorf("group %s: %w", name, err)
		}
		if e.base[name], err = sess.BaselineContext(ctx, a); err != nil {
			return nil, err
		}
		e.apps[name] = a
	}
	return e, nil
}

func (e *sweepEnv) do(ctx context.Context, tr *tracer, i int) opResult {
	jobs := make([]core.Job, sweepChunk)
	names := make([]string, sweepChunk)
	for k := range jobs {
		s := e.l.opSpecs(i*sweepChunk + k)[0]
		cfg, err := s.machine()
		if err != nil {
			return opResult{ops: sweepChunk, failed: sweepChunk}
		}
		jobs[k], names[k] = core.Job{App: e.apps[s.App], Cfg: cfg}, s.App
	}
	sess := core.NewSession()
	sess.Workers = 2
	batch := tr.start(spanBatch, int64(i), 0)
	t0 := time.Now()
	res, err := sess.RunBatchContext(ctx, jobs)
	out := opResult{ops: sweepChunk, lat: time.Since(t0)}
	batch.end()
	var be *core.BatchError
	if err != nil && !errors.As(err, &be) {
		out.failed = sweepChunk
		return out
	}
	for k, r := range res {
		if be != nil && be.Errs[k] != nil {
			out.failed++
			continue
		}
		// Verify is on, so the session already checked the kernel's
		// output; here the accounting must be sane too.
		eff := r.Efficiency(e.base[names[k]])
		if r.Cycles <= 0 || r.Instrs <= 0 || !(eff > 0) || math.IsInf(eff, 0) {
			out.failed++
			continue
		}
		out.instrs += r.Instrs
	}
	return out
}

func (e *sweepEnv) check(context.Context) (int, error) { return 0, nil }
func (e *sweepEnv) memo() *core.Session                { return nil }
func (e *sweepEnv) stack() *stack                      { return nil }
func (e *sweepEnv) close() error                       { return nil }

// --- serving workloads ---------------------------------------------------

// serveEnv drives a serving stack through internal/serve/client.
type serveEnv struct {
	mode serveMode
	seed uint64
	l    *opList
	st   *stack

	// Warm workloads: the library references of the pool, computed at
	// set-up on refs, and one prebuilt request per pool spec.
	refs *core.Session
	want map[spec]*machine.Result
	reqs map[spec]*serve.RunRequest
	// served counts the runs answered, warm-up included: on a fleet each
	// must have taken exactly one forward hop.
	served atomic.Int64

	// Cold workloads: the responses of the sampled ops, compared
	// against the library after the measured phase.
	sampled map[int]bool
	mu      sync.Mutex
	runs    map[int]*serve.RunResponse
	batches map[int]*serve.BatchResponse

	// Durable workload counts.
	jobsDone atomic.Int64
	events   atomic.Int64
}

func (e *serveEnv) memo() *core.Session {
	if e.mode == modeWarm {
		return e.refs
	}
	return nil
}

func (e *serveEnv) stack() *stack { return e.st }
func (e *serveEnv) close() error  { return e.st.close() }

// setupWarm starts nodes nodes, warms their memo with every pool
// configuration through the client, and computes the library
// references every response is compared with.
func setupWarm(ctx context.Context, l *opList, tr *tracer, nodes int) (env, error) {
	st, err := newStack(nodes, false, tr)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{mode: modeWarm, l: l, st: st, refs: core.NewSession(),
		want: make(map[spec]*machine.Result), reqs: make(map[spec]*serve.RunRequest)}
	for _, s := range l.specs {
		a, err := apps.New(s.App, app.Quick)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		cfg, err := s.machine()
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		if e.want[s], err = e.refs.RunContext(ctx, a, cfg); err != nil {
			return nil, errors.Join(err, st.close())
		}
		e.reqs[s] = &serve.RunRequest{App: s.App, Config: s.request()}
		if _, err := st.cli.Run(ctx, e.reqs[s]); err != nil {
			return nil, errors.Join(fmt.Errorf("warm %+v: %w", s, err), st.close())
		}
		e.served.Add(1)
	}
	return e, nil
}

// warmBaselines runs each app's ideal baseline through the server once,
// so the measured phase does not pay the one-off baseline simulations a
// fresh server owes its first request per app.
func warmBaselines(ctx context.Context, cli *client.Client, withMetrics bool) error {
	for _, name := range apps.AllNames() {
		req := &serve.RunRequest{App: name, Metrics: withMetrics,
			Config: serve.ConfigRequest{Procs: 1, Threads: 1, Model: "ideal"}}
		if _, err := cli.Run(ctx, req); err != nil {
			return fmt.Errorf("warm baseline %s: %w", name, err)
		}
	}
	return nil
}

func newColdEnv(ctx context.Context, mode serveMode, seed uint64, l *opList, tr *tracer, journal, withMetrics bool) (env, error) {
	st, err := newStack(1, journal, tr)
	if err != nil {
		return nil, err
	}
	if err := warmBaselines(ctx, st.cli, withMetrics); err != nil {
		return nil, errors.Join(err, st.close())
	}
	e := &serveEnv{mode: mode, seed: seed, l: l, st: st, sampled: make(map[int]bool),
		runs: make(map[int]*serve.RunResponse), batches: make(map[int]*serve.BatchResponse)}
	for _, i := range checkSample(seed, l.nominal) {
		e.sampled[i] = true
	}
	return e, nil
}

func setupCold(ctx context.Context, seed uint64, l *opList, tr *tracer) (env, error) {
	return newColdEnv(ctx, modeCold, seed, l, tr, false, true)
}

func setupDurable(ctx context.Context, seed uint64, l *opList, tr *tracer) (env, error) {
	return newColdEnv(ctx, modeDurable, seed, l, tr, true, false)
}

func (e *serveEnv) do(ctx context.Context, tr *tracer, i int) opResult {
	op := tr.start(spanOp, int64(i), 0)
	defer op.end()
	switch e.mode {
	case modeWarm:
		return e.doWarm(ctx, tr, op, i)
	case modeCold:
		return e.doCold(ctx, tr, op, i)
	default:
		return e.doDurable(ctx, tr, op, i)
	}
}

// call runs one client call as a span under the op.
func call[T any](ctx context.Context, tr *tracer, op *active, f func(context.Context) (T, error)) (T, error) {
	var c *active
	if op != nil {
		c = tr.start(spanCall, op.sp.Op, op.id())
	}
	defer c.end()
	return f(c.ctx(ctx))
}

func (e *serveEnv) doWarm(ctx context.Context, tr *tracer, op *active, i int) opResult {
	s := e.l.opSpecs(i)[0]
	t0 := time.Now()
	resp, err := call(ctx, tr, op, func(ctx context.Context) (*serve.RunResponse, error) {
		return e.st.cli.Run(ctx, e.reqs[s])
	})
	out := opResult{ops: 1, lat: time.Since(t0)}
	if err != nil {
		out.failed = 1
		return out
	}
	e.served.Add(1)
	if want := e.want[s]; resp.Cycles != want.Cycles || resp.Instrs != want.Instrs {
		out.failed = 1
		return out
	}
	out.instrs = resp.Instrs
	return out
}

func (e *serveEnv) doCold(ctx context.Context, tr *tracer, op *active, i int) opResult {
	s := e.l.opSpecs(i)[0]
	req := &serve.RunRequest{App: s.App, Config: s.request(), Metrics: true}
	t0 := time.Now()
	resp, err := call(ctx, tr, op, func(ctx context.Context) (*serve.RunResponse, error) {
		return e.st.cli.Run(ctx, req)
	})
	out := opResult{ops: 1, lat: time.Since(t0)}
	if err != nil || resp.Metrics == nil {
		out.failed = 1
		return out
	}
	out.instrs = resp.Instrs
	if e.sampled[i] {
		e.mu.Lock()
		e.runs[i] = resp
		e.mu.Unlock()
	}
	return out
}

// doDurable submits one 2-entry batch under its idempotency key, waits
// for the done event on the job's SSE stream (the latency), then reads
// the result.
func (e *serveEnv) doDurable(ctx context.Context, tr *tracer, op *active, i int) opResult {
	specs := e.l.opSpecs(i)
	batch := &serve.BatchRequest{}
	for _, s := range specs {
		batch.Jobs = append(batch.Jobs, serve.BatchJob{App: s.App, Config: s.request()})
	}
	key := fmt.Sprintf("bench-%d-%d", e.seed, i)
	out := opResult{ops: 1, failed: 1}
	t0 := time.Now()
	job, err := call(ctx, tr, op, func(ctx context.Context) (*serve.V2Job, error) {
		return e.st.cli.SubmitBatch(ctx, batch, key)
	})
	if err != nil {
		out.lat = time.Since(t0)
		return out
	}
	var events int64
	_, err = call(ctx, tr, op, func(ctx context.Context) (struct{}, error) {
		return struct{}{}, e.st.cli.StreamEvents(ctx, job.JobID, "", func(ev client.Event) error {
			switch ev.Type {
			case "checkpoint":
				events++
			case "done":
				out.lat = time.Since(t0)
			}
			return nil
		})
	})
	if !errors.Is(err, client.ErrStreamEnded) {
		out.lat = time.Since(t0)
		return out
	}
	done, err := call(ctx, tr, op, func(ctx context.Context) (*serve.V2Job, error) {
		return e.st.cli.GetJob(ctx, job.JobID)
	})
	if err != nil || done.Status != serve.JobDone {
		return out
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(done.Result, &resp); err != nil || resp.Failed != 0 || len(resp.Results) != len(specs) {
		return out
	}
	for _, r := range resp.Results {
		if r == nil {
			return out
		}
		out.instrs += r.Instrs
	}
	e.jobsDone.Add(1)
	e.events.Add(events)
	if e.sampled[i] {
		e.mu.Lock()
		e.batches[i] = &resp
		e.mu.Unlock()
	}
	out.failed = 0
	return out
}

// check compares every sampled cold response with the document the
// library produces for the same configuration. Checkpointed runs are
// byte-identical to plain ones by contract, so one reference serves
// both the sync and the durable path. On a fleet, a run that was not
// forwarded took the wrong path and counts as failed.
func (e *serveEnv) check(ctx context.Context) (int, error) {
	if e.mode == modeWarm {
		if len(e.st.nodes) == 1 {
			return 0, nil
		}
		missed := e.served.Load() - e.st.front.srv.ClusterForwards()
		return int(max(missed, -missed)), nil
	}
	sess := core.NewSession()
	sess.CollectMetrics = e.mode == modeCold
	failed := 0
	for i, got := range e.runs {
		want, err := libraryRun(ctx, sess, e.l.opSpecs(i)[0])
		if err != nil {
			return 0, err
		}
		if !sameJSON(got, want) {
			failed++
		}
	}
	for i, got := range e.batches {
		want := &serve.BatchResponse{Schema: serve.ResponseSchemaVersion, Scale: app.Quick.String()}
		for _, s := range e.l.opSpecs(i) {
			r, err := libraryRun(ctx, sess, s)
			if err != nil {
				return 0, err
			}
			want.Results = append(want.Results, &serve.BatchJobResult{App: r.App, Model: r.Model,
				Cycles: r.Cycles, Instrs: r.Instrs, Efficiency: r.Efficiency})
			want.Errors = append(want.Errors, "")
		}
		if !sameJSON(got, want) {
			failed++
		}
	}
	return failed, nil
}

// libraryRun is the /v1 result document the library path gives for s.
func libraryRun(ctx context.Context, sess *core.Session, s spec) (*serve.RunResponse, error) {
	a, err := apps.New(s.App, app.Quick)
	if err != nil {
		return nil, err
	}
	cfg, err := s.machine()
	if err != nil {
		return nil, err
	}
	res, err := sess.RunContext(ctx, a, cfg)
	if err != nil {
		return nil, err
	}
	base, err := sess.BaselineContext(ctx, a)
	if err != nil {
		return nil, err
	}
	return &serve.RunResponse{
		Schema: serve.ResponseSchemaVersion, App: a.Name, Scale: app.Quick.String(),
		Model: res.Config.Model.String(), Cycles: res.Cycles, Instrs: res.Instrs,
		BaselineCycles: base, Speedup: res.Speedup(base), Efficiency: res.Efficiency(base),
		Utilization: res.Utilization(), Metrics: res.Metrics,
	}, nil
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}
