// Package core ties the system together for measurement: it owns the
// efficiency metric and the searches the paper's tables are built from.
//
// The paper's efficiency is speedup / processors, with speedup measured
// against an ideal single processor: a 1-processor, 1-thread, zero-latency
// run of the same program (§3.2, Figure 2). A Session memoizes
// simulation runs, that baseline among them, since several tables sweep
// overlapping configurations.
//
// A Session is safe for concurrent use. Run deduplicates in-flight work
// singleflight-style: the first caller for a configuration simulates,
// later callers for the same key block until it finishes and share the
// same *Result. RunBatch and MTSearch exploit that to sweep independent
// configurations on a worker pool sized by Workers (default GOMAXPROCS);
// ForEach is that pool for callers with their own per-job work.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mtsim/internal/app"
	"mtsim/internal/machine"
	"mtsim/internal/metrics"
)

// PanicError is a worker panic recovered into a structured per-job
// error: a bug in an application kernel (or the simulator itself) fails
// that one job instead of crashing the whole sweep.
type PanicError struct {
	App   string
	Cfg   machine.Config
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic in %s [model=%s procs=%d threads=%d latency=%d]: %v",
		e.App, e.Cfg.Model, e.Cfg.Procs, e.Cfg.Threads, e.Cfg.Latency, e.Value)
}

// BatchError aggregates the per-job failures of a RunBatch. Errs is
// job-aligned (nil for jobs that succeeded); Unwrap exposes the non-nil
// entries so errors.Is/As traverse the whole set.
type BatchError struct {
	Errs   []error
	Failed int
}

func (e *BatchError) Error() string {
	for _, err := range e.Errs {
		if err != nil {
			return fmt.Sprintf("core: %d of %d jobs failed; first: %v", e.Failed, len(e.Errs), err)
		}
	}
	return "core: batch error with no failures"
}

// Unwrap returns the non-nil per-job errors.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, e.Failed)
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// EffTargets are the efficiency levels the paper's Tables 3, 5, 6 and 8
// report multithreading levels for.
var EffTargets = []float64{0.50, 0.60, 0.70, 0.80, 0.90}

// runKey identifies a run by application and full configuration.
// machine.Config is a flat value struct of scalars, so the key is
// comparable and costs nothing to build — unlike the formatted string it
// replaced, which allocated on every Run call in the sweep hot path. A
// new non-comparable Config field would fail to compile here rather than
// silently alias two configurations.
type runKey struct {
	appName string
	cfg     machine.Config
}

// inflight is a singleflight slot: the first Run for a key creates one,
// simulates, fills res/err and closes done; concurrent callers for the
// same key wait on done and share the outcome.
type inflight struct {
	done chan struct{}
	res  *machine.Result
	err  error
}

// Session runs applications and memoizes their results.
type Session struct {
	mu       sync.Mutex
	results  map[runKey]*machine.Result
	running  map[runKey]*inflight
	sims     atomic.Int64
	memoHits atomic.Int64
	batch    metrics.Batch // guarded by mu
	// Verify enables result checking on every run (the default); the
	// benchmark harness can disable it to time simulation alone.
	Verify bool
	// Workers bounds the worker pool used by RunBatch, ForEach and
	// MTSearch. Zero or negative means GOMAXPROCS.
	Workers int
	// CollectMetrics turns on the cycle-accounting observability layer
	// for every simulation this session executes: each Result carries
	// its RunMetrics and Metrics() aggregates them. Set it before the
	// first Run, like Verify and Workers. The flag is applied inside
	// simulate, after the memo key is built, so a metrics-collecting
	// session memoizes exactly like a plain one.
	CollectMetrics bool
}

// NewSession returns an empty session with verification on.
func NewSession() *Session {
	return &Session{
		results: make(map[runKey]*machine.Result),
		running: make(map[runKey]*inflight),
		Verify:  true,
	}
}

// Width resolves the effective worker-pool width: Workers, or
// GOMAXPROCS when Workers is zero or negative.
func (s *Session) Width() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SimCount reports how many simulations this session has actually
// executed (memo hits and singleflight followers excluded). Tests use it
// to assert deduplication.
func (s *Session) SimCount() int64 {
	return s.sims.Load()
}

// MemoHits reports how many successful Run calls were served without a
// fresh simulation: memo-map hits plus singleflight followers. Counting
// followers keeps the number a function of the job list alone — a
// duplicate configuration scores one hit whether the pool ran it
// sequentially (map hit) or concurrently (follower) — so engine metrics
// stay byte-identical across worker-pool widths.
func (s *Session) MemoHits() int64 {
	return s.memoHits.Load()
}

// Metrics snapshots the session's aggregated cycle accounting: the
// BatchMetrics over every simulation executed so far (empty unless
// CollectMetrics is set) with the engine's own counters attached.
func (s *Session) Metrics() *metrics.BatchMetrics {
	engine := metrics.EngineMetrics{Sims: s.sims.Load(), MemoHits: s.memoHits.Load()}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batch.Metrics(engine)
}

// Run simulates a under cfg, memoizing by configuration. Concurrent
// callers with the same configuration trigger a single simulation and
// receive the identical *Result. Errors are not memoized: a failed key
// is released so a later call retries, matching the sequential behavior.
//
// Run is RunContext with context.Background(); new callers should
// prefer the context form.
func (s *Session) Run(a *app.App, cfg machine.Config) (*machine.Result, error) {
	return s.RunContext(context.Background(), a, cfg)
}

// RunContext is Run under a context. A canceled or expired ctx aborts
// the caller's own simulation cooperatively (the memo stays clean:
// errors are never memoized) and unblocks a singleflight follower
// waiting on another caller's in-flight run. A memo hit costs no work,
// so it is served even under a dead ctx, as RunCheckpointedContext
// serves it: a baseline lookup after a run's deadline still finds the
// baseline. If the leader of a shared key is canceled, followers whose
// own context is still live retry the key rather than inheriting the
// leader's cancellation, so one aborted request cannot fail an
// unrelated one that raced onto the same configuration.
func (s *Session) RunContext(ctx context.Context, a *app.App, cfg machine.Config) (*machine.Result, error) {
	k := runKey{a.Name, cfg}
	for {
		s.mu.Lock()
		if r, ok := s.results[k]; ok {
			s.mu.Unlock()
			s.memoHits.Add(1)
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if fl, ok := s.running[k]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err == nil {
				s.memoHits.Add(1)
				return fl.res, nil
			}
			if isCancellation(fl.err) {
				// The leader's request died, not the configuration:
				// retry under our own (still live) context.
				continue
			}
			return fl.res, fl.err
		}
		fl := &inflight{done: make(chan struct{})}
		s.running[k] = fl
		s.mu.Unlock()

		fl.res, fl.err = s.simulate(ctx, a, cfg)
		s.mu.Lock()
		if fl.err == nil {
			s.results[k] = fl.res
		}
		delete(s.running, k)
		s.mu.Unlock()
		close(fl.done)
		return fl.res, fl.err
	}
}

// isCancellation reports whether err stems from a canceled or expired
// context rather than from the simulated configuration itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// simulate performs one actual machine run. A panic anywhere below —
// application Init/Check, program generation, the simulator itself — is
// recovered into a *PanicError, so one broken kernel fails its own job
// instead of killing the sweep's worker pool.
func (s *Session) simulate(ctx context.Context, a *app.App, cfg machine.Config) (res *machine.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{App: a.Name, Cfg: cfg, Value: v, Stack: debug.Stack()}
		}
	}()
	if s.CollectMetrics {
		// cfg is this call's copy: the memo key was already built from
		// the caller's value, so collection never forks the memo space.
		cfg.CollectMetrics = true
	}
	p, err := a.ProgramFor(cfg.Model)
	if err != nil {
		return nil, err
	}
	check := a.Check
	if !s.Verify {
		check = nil
	}
	s.sims.Add(1)
	r, err := machine.RunCheckedContext(ctx, cfg, p, a.Init.Fill, check)
	if err != nil {
		if isCancellation(err) {
			return nil, err // already names program and cycle
		}
		if errors.Is(err, machine.ErrMaxCycles) {
			// Name the offending app and configuration: a livelock report
			// from deep inside a sweep is useless without them.
			return nil, fmt.Errorf("core: %s [model=%s procs=%d threads=%d latency=%d]: %w",
				a.Name, cfg.Model, cfg.Procs, cfg.Threads, cfg.Latency, err)
		}
		return nil, fmt.Errorf("core: %s: %w", a.Name, err)
	}
	if r.Metrics != nil {
		s.mu.Lock()
		s.batch.Add(r.Metrics)
		s.mu.Unlock()
	}
	return r, nil
}

// Job names one simulation for RunBatch.
type Job struct {
	App *app.App
	Cfg machine.Config
}

// RunBatch runs the jobs on a worker pool of at most Workers goroutines
// and returns results in job order. Every job runs to completion
// regardless of other jobs' failures: a livelocked or panicking
// configuration costs only its own slot. On any failure the returned
// error is a *BatchError whose Errs slice is job-aligned, so callers can
// pair each nil result with its cause; the partial results are always
// returned.
//
// RunBatch is RunBatchContext with context.Background(); new callers
// should prefer the context form.
func (s *Session) RunBatch(jobs []Job) ([]*machine.Result, error) {
	return s.RunBatchContext(context.Background(), jobs)
}

// RunBatchContext is RunBatch under a context. Once ctx is canceled the
// pool stops scheduling new jobs — each unstarted job fails with
// ctx.Err() in its own slot — and in-flight simulations abort
// cooperatively, so the call returns promptly with job-aligned partial
// results: every job that completed before the cancellation still
// reports its *Result, exactly as it would have in an uncanceled batch.
func (s *Session) RunBatchContext(ctx context.Context, jobs []Job) ([]*machine.Result, error) {
	res := make([]*machine.Result, len(jobs))
	err := s.ForEach(ctx, len(jobs), func(i int) (err error) {
		res[i], err = s.RunContext(ctx, jobs[i].App, jobs[i].Cfg)
		return err
	})
	return res, err
}

// ForEach calls fn(i) for every i in [0, n) on the session's worker
// pool: at most Width() calls run at once, and they start in index
// order, so with width 1 they run one after another. Once ctx is
// canceled no further call starts and each unstarted index fails with
// ctx.Err(). A failure fails only its own index: the error is nil, or
// a *BatchError whose Errs are index-aligned.
func (s *Session) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, s.Width())
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		// select picks at random when a slot is free and ctx is done, so
		// ctx decides here. A slot taken after the cancel stays taken:
		// no call starts after it anyway.
		if errs[i] = ctx.Err(); errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed > 0 {
		return &BatchError{Errs: errs, Failed: failed}
	}
	return nil
}

// BaselineJob is the run whose cycle count is a's efficiency baseline:
// one processor, one thread, zero latency (the ideal machine).
func BaselineJob(a *app.App) Job {
	return Job{App: a, Cfg: machine.Config{Procs: 1, Threads: 1, Model: machine.Ideal}}
}

// Baseline returns the ideal single-processor cycle count for a. It is
// BaselineContext with context.Background().
func (s *Session) Baseline(a *app.App) (int64, error) {
	return s.BaselineContext(context.Background(), a)
}

// BaselineContext is Baseline under a context: the memoized run of
// BaselineJob(a), so a repeated lookup is an ordinary memo hit.
func (s *Session) BaselineContext(ctx context.Context, a *app.App) (int64, error) {
	j := BaselineJob(a)
	r, err := s.RunContext(ctx, j.App, j.Cfg)
	if err != nil {
		return 0, err
	}
	return r.Cycles, nil
}

// Efficiency runs a under cfg and returns the paper's efficiency metric.
// It is EfficiencyContext with context.Background().
func (s *Session) Efficiency(a *app.App, cfg machine.Config) (float64, error) {
	return s.EfficiencyContext(context.Background(), a, cfg)
}

// EfficiencyContext is Efficiency under a context.
func (s *Session) EfficiencyContext(ctx context.Context, a *app.App, cfg machine.Config) (float64, error) {
	base, err := s.BaselineContext(ctx, a)
	if err != nil {
		return 0, err
	}
	r, err := s.RunContext(ctx, a, cfg)
	if err != nil {
		return 0, err
	}
	return r.Efficiency(base), nil
}

// MTSearch finds, for each target efficiency, the smallest multithreading
// level 1..maxMT that reaches it under the given base configuration
// (cfg.Threads is overridden). Unreached targets report 0. It also
// returns the best efficiency seen and the level that achieved it.
//
// Levels are probed speculatively in waves of Width() at a time on the
// session's worker pool (ForEach), then consumed strictly in level
// order with the sequential early-exit rule, so the returned values are
// identical to a one-by-one scan — a wave merely warms the memo past
// the level the scan stops at.
//
// A failing level (livelock, panic) does not abort the search: the
// level is skipped, the remaining levels are still probed, and the
// failures come back joined in err alongside the partial results. Only
// a baseline failure — which makes every efficiency undefined — aborts.
//
// MTSearch is MTSearchContext with context.Background(); new callers
// should prefer the context form.
func (s *Session) MTSearch(a *app.App, cfg machine.Config, targets []float64, maxMT int) (levels []int, bestEff float64, bestMT int, err error) {
	return s.MTSearchContext(context.Background(), a, cfg, targets, maxMT)
}

// MTSearchContext is MTSearch under a context. Cancellation stops the
// search between waves (and aborts the wave's in-flight probes
// cooperatively): the levels found so far are returned alongside an
// error that wraps ctx.Err().
func (s *Session) MTSearchContext(ctx context.Context, a *app.App, cfg machine.Config, targets []float64, maxMT int) (levels []int, bestEff float64, bestMT int, err error) {
	// The baseline is shared by every probe; resolve it once up front so
	// wave members don't singleflight-pile on it.
	if _, err := s.BaselineContext(ctx, a); err != nil {
		return nil, 0, 0, err
	}
	levels = make([]int, len(targets))
	found := 0
	var sweepErrs []error
	wave := s.Width()
	for lo := 1; lo <= maxMT; lo += wave {
		if cerr := ctx.Err(); cerr != nil {
			sweepErrs = append(sweepErrs, fmt.Errorf("search stopped before threads=%d: %w", lo, cerr))
			break
		}
		hi := lo + wave - 1
		if hi > maxMT {
			hi = maxMT
		}
		effs := make([]float64, hi-lo+1)
		errs := make([]error, len(effs))
		var be *BatchError
		if errors.As(s.ForEach(ctx, len(effs), func(k int) (err error) {
			c := cfg
			c.Threads = lo + k
			effs[k], err = s.EfficiencyContext(ctx, a, c)
			return err
		}), &be) {
			errs = be.Errs
		}
		for mt := lo; mt <= hi; mt++ {
			if e := errs[mt-lo]; e != nil {
				sweepErrs = append(sweepErrs, fmt.Errorf("threads=%d: %w", mt, e))
				continue
			}
			eff := effs[mt-lo]
			if eff > bestEff {
				bestEff, bestMT = eff, mt
			}
			for i, tgt := range targets {
				if levels[i] == 0 && eff >= tgt {
					levels[i] = mt
					found++
				}
			}
			if found == len(targets) {
				return levels, bestEff, bestMT, errors.Join(sweepErrs...)
			}
		}
	}
	return levels, bestEff, bestMT, errors.Join(sweepErrs...)
}

// FormatLevels renders an MTSearch row: the level per target, or "-" for
// targets the application never reached (the paper leaves those blank:
// "most of the applications could not achieve all of these efficiency
// levels", §4.2).
func FormatLevels(levels []int) []string {
	out := make([]string, len(levels))
	for i, l := range levels {
		if l == 0 {
			out[i] = "-"
		} else {
			out[i] = fmt.Sprintf("%d", l)
		}
	}
	return out
}
