package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"mtsim/internal/cache"
	"mtsim/internal/isa"
	"mtsim/internal/machine/jit"
	"mtsim/internal/metrics"
	"mtsim/internal/net"
	"mtsim/internal/prog"
)

// ErrMaxCycles is returned when a run exceeds Config.MaxCycles — almost
// always a livelocked spin loop caused by an application bug.
var ErrMaxCycles = errors.New("machine: exceeded MaxCycles (livelock?)")

// ErrFaultStall is the watchdog's verdict when a run exceeded MaxCycles
// while the fault-injection recovery protocol was actively retrying:
// the stall is (at least partly) fault-induced rather than a plain
// application livelock. It wraps ErrMaxCycles, so errors.Is against
// either matches.
var ErrFaultStall = fmt.Errorf("%w under fault injection (fault-induced stall)", ErrMaxCycles)

const never = math.MaxInt64

// CancelCheckInterval is the cooperative-cancellation amortization
// constant: a context-carrying run polls ctx.Done() once per this many
// event-loop steps (outer cohort scans and batched single-processor
// dispatches both count one step). The poll is two atomic-free branch
// instructions between checks, so the hot loop's throughput is
// unaffected within the bench harness's tolerance, while the worst-case
// cancellation lag stays bounded at one interval's worth of simulated
// dispatches (well under a millisecond of host time). Runs without a
// cancelable context (context.Background; the legacy Run entry points)
// skip even the countdown: they pay a single nil check per step and
// their output is byte-identical to a build without cancellation.
const CancelCheckInterval = 1 << 16

// thread is one hardware thread context: its own 32 integer and 32
// floating-point registers (§3), a program counter, local memory, and the
// split-phase load scoreboard.
type thread struct {
	pc     int32
	halted bool
	regs   [isa.NumIntRegs]int64
	fregs  [isa.NumFPRegs]float64

	// wake is the first cycle at which the thread may execute again.
	wake int64
	// regReady/fregReady hold, per register, the cycle at which the
	// newest split-phase load targeting it completes.
	regReady  [isa.NumIntRegs]int64
	fregReady [isa.NumFPRegs]int64
	// maxReady is the completion cycle of the newest outstanding load:
	// under ordered delivery, waiting for it waits for the whole group.
	maxReady int64

	// runLen counts busy cycles since the last taken context switch;
	// sinceSwitch feeds the conditional-switch run-limit flag (§6.2).
	runLen      int64
	sinceSwitch int64

	// window is the §5.2 grouping-estimation buffer (nil unless
	// Config.GroupWindow).
	window *cache.Window

	// crit is the critical-region nesting depth (CritEnter/CritExit);
	// under Config.CritPriority the scheduler prefers threads with
	// crit > 0.
	crit int32

	local []int64
}

// proc is one processor: a set of thread contexts scheduled round-robin,
// an optional shared-data cache, and its occupancy state.
type proc struct {
	id      int32
	threads []thread
	cur     int
	live    int
	// resume remembers a runnable thread displaced by a critical-region
	// preemption (Config.CritPriority); when the critical thread next
	// blocks, the displaced thread continues instead of the round-robin
	// successor, so priority does not churn through spin loops. -1 when
	// empty.
	resume int
	// critLive counts non-halted threads currently inside a critical
	// region; the scheduler's CritPriority rescan is skipped while it is
	// zero.
	critLive int32
	cache    *cache.Cache

	busy           int64
	spinBusy       int64
	switchOverhead int64
}

// m is one in-flight simulation.
type m struct {
	cfg    Config
	prg    *prog.Program
	instrs []isa.Instr
	sh     []int64
	shared *Shared
	procs  []proc
	dir    *cache.Directory
	// dirtyOwner maps a cache line to the processor holding it modified
	// (write-back coherence: a dirty line has exactly one copy).
	dirtyOwner map[int64]int32
	lat        int64
	jitter     int64
	preempt    int64
	trace      Tracer
	congestion *net.Congestion
	// topo is the explicit-topology network (Config.Topology); nil for
	// the constant (legacy) network, so the constant path is untouched.
	topo   *net.Network
	faults *net.FaultPlan
	// mx is the cycle-accounting collector (Config.CollectMetrics).
	// nil when disabled: every hook below sits behind one nil check so
	// the hot loop pays nothing for the observability layer.
	mx *metrics.Collector
	// eng is the compiled dispatch engine (see dispatch.go); nil when
	// the configuration is ineligible or forces the interpreter.
	eng *jit.Program
	// nowApprox mirrors the run loop's current cycle for accounting
	// hooks that are not passed the time explicitly.
	nowApprox int64
	res       *Result
	live      int
	srcBuf    []uint8
	shrBuf    []int32
	lineSz    int
	// wakes[p] is the earliest cycle at which processor p can execute
	// an instruction (never if all its threads halted). It lives in its
	// own contiguous slice — not in the proc struct — so the run loop's
	// event scan touches a handful of cache lines instead of one line
	// per ~200-byte proc.
	wakes []int64
	// wheel indexes wakes for the run loop (see wheel.go). Derived
	// state: never snapshotted, rebuilt lazily from wakes after a
	// restore, and kept consistent across pauses.
	wheel *eventWheel
	// ctxDone is the run's cancellation channel (nil when the context
	// cannot be canceled, which disables polling entirely); cancelTick
	// counts event-loop steps down to the next amortized poll
	// (CancelCheckInterval).
	ctx        context.Context
	ctxDone    <-chan struct{}
	cancelTick int64
	// now is the event clock, persisted across run calls so a paused
	// simulation (see until) resumes exactly where it stopped.
	now int64
	// until is the cycle budget of the current run call: the loop
	// pauses before executing any event at a cycle >= until. Unbounded
	// runs set it to never, which reduces the budget check to one
	// always-false compare per step — the same cost class as the
	// MaxCycles guard, keeping checkpointing-off zero-cost.
	until int64
}

// Run executes program p under cfg. init, if non-nil, fills shared memory
// before the forked phase starts (the paper's excluded serial setup).
//
// Run is RunContext with context.Background(): it cannot be canceled or
// bounded by a deadline. New callers should prefer RunContext.
func Run(cfg Config, p *prog.Program, init func(*Shared)) (*Result, error) {
	return RunChecked(cfg, p, init, nil)
}

// RunContext is Run under a context: the event loop polls ctx
// cooperatively (amortized every CancelCheckInterval steps, so the hot
// loop is unaffected) and a canceled or expired context aborts the run
// with an error wrapping ctx.Err(). A completed run is byte-identical
// to Run: cancellation can only end a simulation early, never change
// what it computes.
func RunContext(ctx context.Context, cfg Config, p *prog.Program, init func(*Shared)) (*Result, error) {
	return runInternal(ctx, cfg, p, init, nil, nil)
}

// RunCheckedContext is RunChecked under a context (see RunContext).
func RunCheckedContext(ctx context.Context, cfg Config, p *prog.Program, init func(*Shared), check func(*Shared) error) (*Result, error) {
	return runInternal(ctx, cfg, p, init, check, nil)
}

// TraceEvent describes one dynamic shared-memory access, for the
// pixie-style trace analysis the paper's methodology is built on (§3.1).
type TraceEvent struct {
	Cycle  int64
	Proc   int32
	Thread int64
	PC     int32
	Op     isa.Op
	Addr   int64
}

// Tracer receives every dynamic shared access in execution order.
type Tracer func(TraceEvent)

// RunTraced is RunChecked with a shared-access tracer attached. The
// tracer is deliberately not part of Config (Config stays a comparable
// value used as a memoization key).
func RunTraced(cfg Config, p *prog.Program, init func(*Shared), check func(*Shared) error, tr Tracer) (*Result, error) {
	return runInternal(context.Background(), cfg, p, init, check, tr)
}

// RunChecked is Run followed by a correctness check of the final shared
// memory contents, used by tests and the experiment harness to guarantee
// every measured execution computed the right answer.
//
// RunChecked is RunCheckedContext with context.Background(); new
// callers should prefer the context form.
func RunChecked(cfg Config, p *prog.Program, init func(*Shared), check func(*Shared) error) (*Result, error) {
	return runInternal(context.Background(), cfg, p, init, check, nil)
}

func runInternal(ctx context.Context, cfg Config, p *prog.Program, init func(*Shared), check func(*Shared) error, tr Tracer) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("machine: program %q not started: %w", p.Name, err)
	}
	sim, err := newSim(cfg, p, init, tr)
	if err != nil {
		return nil, err
	}
	sim.bindContext(ctx)
	if _, err := sim.run(); err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(sim.shared); err != nil {
			return nil, fmt.Errorf("machine: program %q under %s produced wrong result: %w", p.Name, sim.cfg.Model, err)
		}
	}
	return sim.res, nil
}

// newSim validates the inputs and builds a ready-to-run simulation at
// cycle 0 (the constructor shared by the one-shot entry points and the
// pausable Machine handle).
func newSim(cfg Config, p *prog.Program, init func(*Shared), tr Tracer) (*m, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Instrs) == 0 {
		return nil, fmt.Errorf("machine: program %q is empty", p.Name)
	}

	sim := &m{
		cfg:    cfg,
		prg:    p,
		instrs: p.Instrs,
		lat:    int64(cfg.Latency),
		res:    &Result{Config: cfg},
		until:  never,
	}
	if cfg.PreemptLimit > 0 {
		sim.preempt = int64(cfg.PreemptLimit)
	}
	sim.jitter = int64(cfg.LatencyJitter)
	sim.trace = tr
	if cfg.Congestion.Enabled {
		sim.congestion = net.NewCongestion(cfg.Congestion, cfg.Procs)
	}
	if cfg.Topology.Enabled() {
		sim.topo = net.NewNetwork(cfg.Topology, cfg.Procs, cfg.Latency)
	}
	if cfg.Faults.Enabled {
		sim.faults = net.NewFaultPlan(cfg.Faults, cfg.Latency)
	}
	if cfg.CollectMetrics {
		sim.mx = metrics.NewCollector(cfg.Procs, cfg.Threads)
	}
	sim.shared = NewShared(p)
	if init != nil {
		init(sim.shared)
	}
	sim.sh = sim.shared.Cells()
	if cfg.Model.UsesCache() {
		sim.dir = cache.NewDirectory()
		sim.dirtyOwner = make(map[int64]int32)
		sim.lineSz = cfg.Cache.LineCells
	}

	nthreads := cfg.Procs * cfg.Threads
	localWords := p.Local.Size()
	sim.procs = make([]proc, cfg.Procs)
	for pi := range sim.procs {
		pr := &sim.procs[pi]
		pr.id = int32(pi)
		pr.threads = make([]thread, cfg.Threads)
		pr.live = cfg.Threads
		pr.resume = -1
		if cfg.Model.UsesCache() {
			pr.cache = cache.MustNew(cfg.Cache)
		}
		for ti := range pr.threads {
			t := &pr.threads[ti]
			// Threads are distributed blockwise: processor pi runs
			// global thread ids pi*Threads .. (pi+1)*Threads-1.
			t.regs[isa.RTid] = int64(pi*cfg.Threads + ti)
			t.regs[isa.RNth] = int64(nthreads)
			t.regs[isa.RPid] = int64(pi)
			if localWords > 0 {
				t.local = make([]int64, localWords)
			}
			if cfg.GroupWindow {
				t.window = cache.NewWindow(cfg.WindowCells)
			}
		}
	}
	sim.live = nthreads
	if err := sim.compileEngine(); err != nil {
		return nil, err
	}
	return sim, nil
}

// bindContext attaches ctx's cancellation to the event loop for the
// next run call. A Machine resumed under a different context rebinds;
// cancellation timing never affects what a completed run computes.
func (sim *m) bindContext(ctx context.Context) {
	sim.ctx, sim.ctxDone, sim.cancelTick = nil, nil, 0
	if done := ctx.Done(); done != nil {
		sim.ctx = ctx
		sim.ctxDone = done
		sim.cancelTick = CancelCheckInterval
	}
}

// run drives the cycle loop. It is event-driven over cycles: each
// processor carries the earliest cycle at which it can execute, and the
// loop advances time to the minimum. This is exact, not an approximation:
// wake times are fixed when a load issues and data visibility is
// immediate, so a stalled processor can neither affect nor be affected by
// anything until one of its threads wakes.
//
// The event queue is the calendar wheel in wheel.go: per-cycle bitmap
// buckets popped in processor-id order, so every instruction executes
// at the same cycle, and processors sharing a cycle still run in the
// same order, as a naive min-scan would produce. A flat wake-vector
// scan (and, before it, an indexed min-heap) was profiled here first:
// the scan beat the heap when every dispatch was one instruction, but
// under the compiled engine a dispatch is a whole chain, cohorts thin
// out, and one O(procs) pass per event cycle dominated the profile.
// The wheel pays O(1) per dispatch and per cycle instead. A single-
// processor machine bypasses queueing entirely: with nothing to order
// against, run degenerates to a straight dispatch loop.
//
// run also honors sim.until, the pause bound used by the checkpointing
// Machine handle: the loop stops *before executing any event* at a
// cycle >= until and records the clock in sim.now, an instruction
// boundary at which every piece of simulator state is consistent. A
// later call re-enters at the same clock and pops the identical cohort
// (the paused cycle's bucket is untouched), making a paused-and-resumed
// run byte-identical to an uninterrupted one. sim.wakes remains the
// canonical event state: snapshots encode it and never the wheel, which
// a restored machine rebuilds lazily here.
func (sim *m) run() (done bool, err error) {
	if sim.wakes == nil {
		sim.wakes = make([]int64, len(sim.procs)) // all due at cycle 0
	}
	if len(sim.procs) == 1 {
		return sim.runSingle()
	}
	now := sim.now
	if sim.wheel == nil {
		sim.buildWheel(now)
	}
	for {
		if now > sim.cfg.MaxCycles {
			return false, sim.maxCyclesErr(now)
		}
		if now >= sim.until {
			sim.now = now
			return false, nil
		}
		if sim.ctxDone != nil {
			if sim.cancelTick--; sim.cancelTick <= 0 {
				if err := sim.pollCancel(now); err != nil {
					return false, err
				}
			}
		}
		sim.nowApprox = now
		// A processor executed earlier in the cohort can change a later
		// one's cache state but never its wake time, so the bucket
		// popped here is exactly the cohort a full scan would find.
		if err := sim.popAndRun(now); err != nil {
			return false, err
		}
		if sim.live == 0 {
			break
		}
		next, ok := sim.nextEvent(now + 1)
		if !ok {
			return false, fmt.Errorf("machine: internal: %d live threads but no runnable processor", sim.live)
		}
		now = next
	}
	sim.finish(sim.nowApprox + 1)
	return true, nil
}

// runSingle is run for a one-processor machine: no ordering against
// other processors exists, so the loop dispatches straight off the
// single wake time.
func (sim *m) runSingle() (done bool, err error) {
	now := sim.now
	for {
		if now > sim.cfg.MaxCycles {
			return false, sim.maxCyclesErr(now)
		}
		if now >= sim.until {
			sim.now = now
			return false, nil
		}
		if sim.ctxDone != nil {
			if sim.cancelTick--; sim.cancelTick <= 0 {
				if err := sim.pollCancel(now); err != nil {
					return false, err
				}
			}
		}
		sim.nowApprox = now
		if err := sim.execOne(&sim.procs[0], now); err != nil {
			return false, err
		}
		if sim.live == 0 {
			break
		}
		w := sim.wakes[0]
		if w == never {
			return false, fmt.Errorf("machine: internal: %d live threads but no runnable processor", sim.live)
		}
		now = w
	}
	sim.finish(sim.nowApprox + 1)
	return true, nil
}

// pollCancel performs the amortized cooperative-cancellation check: it
// resets the countdown and reports a run-ending error iff the context
// was canceled. Only reached once per CancelCheckInterval event-loop
// steps, and only for runs whose context can actually be canceled.
func (sim *m) pollCancel(now int64) error {
	sim.cancelTick = CancelCheckInterval
	select {
	case <-sim.ctxDone:
		return fmt.Errorf("machine: program %q canceled at cycle %d (model %s): %w",
			sim.prg.Name, now, sim.cfg.Model, sim.ctx.Err())
	default:
		return nil
	}
}

// maxCyclesErr builds the watchdog error for a run that exceeded
// MaxCycles, distinguishing a fault-induced stall (the recovery protocol
// was timing out and retrying) from a plain application livelock. Fault
// stats accumulate at issue time, so they are current here.
func (sim *m) maxCyclesErr(now int64) error {
	if sim.faults != nil && sim.faults.Stats.Timeouts > 0 {
		st := sim.faults.Stats
		return fmt.Errorf("%w at cycle %d (program %q, model %s; drops=%d timeouts=%d retries=%d backoff-cycles=%d)",
			ErrFaultStall, now, sim.prg.Name, sim.cfg.Model, st.Drops, st.Timeouts, st.Retries, st.BackoffCycles)
	}
	return fmt.Errorf("%w at cycle %d (program %q, model %s)", ErrMaxCycles, now, sim.prg.Name, sim.cfg.Model)
}

// finish closes the books. end is one past the cycle on which the last
// instruction issued.
func (sim *m) finish(end int64) {
	sim.res.ProcBusy = make([]int64, len(sim.procs))
	for pi := range sim.procs {
		pr := &sim.procs[pi]
		sim.res.ProcBusy[pi] = pr.busy - pr.spinBusy
		sim.res.Busy += pr.busy
		sim.res.SwitchOverhead += pr.switchOverhead
		if pr.cache != nil {
			sim.res.CacheHits += pr.cache.Hits
			sim.res.CacheMisses += pr.cache.Misses
			sim.res.CacheInvals += pr.cache.Invals
		}
		for ti := range pr.threads {
			if w := pr.threads[ti].window; w != nil {
				sim.res.WindowHits += w.Hits
				sim.res.WindowProbes += w.Hits + w.Misses
			}
		}
	}
	if sim.congestion != nil {
		sim.res.NetPeakUtilization = sim.congestion.PeakUtilization
		sim.res.NetFinalLatency = sim.congestion.Latency(end)
	}
	if sim.topo != nil {
		sim.res.TopoMaxLatency = sim.topo.MaxLatency
		sim.res.TopoPeakQueue = sim.topo.PeakQueue
		sim.res.TopoRequests = sim.topo.Requests
	}
	if sim.faults != nil {
		sim.res.Faults = sim.faults.Stats
	}
	sim.res.Cycles = end
	if sim.res.Cycles < 1 {
		sim.res.Cycles = 1
	}
	total := sim.res.Cycles * int64(sim.cfg.Procs)
	sim.res.Idle = total - sim.res.Busy - sim.res.SwitchOverhead
	if sim.res.Idle < 0 {
		sim.res.Idle = 0
	}
	if sim.mx != nil {
		rm := sim.mx.Finish(sim.res.Cycles)
		rm.Program = sim.prg.Name
		rm.Model = sim.cfg.Model.String()
		rm.NumProcs = sim.cfg.Procs
		rm.NumThreads = sim.cfg.Threads
		rm.Counters = metrics.Counters{
			Instrs:          sim.res.Instrs,
			SwitchesTaken:   sim.res.TakenSwitches,
			SwitchesSkipped: sim.res.SkippedSwitches,
			SwitchesForced:  sim.res.ForcedSwitches,
			RunLengthMean:   sim.res.RunLengths.Mean(),
			RunLengthMax:    sim.res.RunLengths.Max,
			NetRoundTrips:   sim.res.SharedLoads,
			NetMessages:     sim.res.Traffic.Messages(),
			FaultRetries:    sim.res.Faults.Retries,
			FaultTimeouts:   sim.res.Faults.Timeouts,
		}
		sim.res.Metrics = rm
	}
}

// runtimeErr builds a diagnostic for a simulated-program fault.
func (sim *m) runtimeErr(pr *proc, t *thread, pc int32, format string, args ...any) error {
	loc := fmt.Sprintf("program %q, proc %d, thread %d, pc %d (%s)",
		sim.prg.Name, pr.id, t.regs[isa.RTid], pc, sim.instrs[pc].String())
	return fmt.Errorf("machine: %s: %s", fmt.Sprintf(format, args...), loc)
}

// execOne runs one instruction on processor pr at cycle now and updates
// its wake time. When the selected thread turns out to be blocked on a pending
// register (a "use point"), the context switch is free — identified at
// decode, §3 — so the processor retries with the next ready thread in the
// same cycle.
func (sim *m) execOne(pr *proc, now int64) error {
	for attempt := 0; ; attempt++ {
		// Select the running thread: stay on the current one if
		// runnable, otherwise round-robin scan. Under CritPriority a
		// ready thread inside a critical region is preferred, so held
		// locks release sooner (§6.2) — but the scan for one is needed
		// only while some thread on this processor actually is in a
		// critical region (critLive), so a runnable current thread
		// normally skips the scan entirely.
		t := &pr.threads[pr.cur]
		if t.halted || t.wake > now ||
			(sim.cfg.CritPriority && t.crit == 0 && pr.critLive > 0) {
			found, foundCrit := -1, -1
			n := len(pr.threads)
			for i := 1; i <= n; i++ {
				j := (pr.cur + i) % n
				c := &pr.threads[j]
				if c.halted || c.wake > now {
					continue
				}
				if found < 0 {
					found = j
				}
				if sim.cfg.CritPriority && c.crit > 0 {
					foundCrit = j
					break
				}
			}
			switch {
			case foundCrit >= 0:
				if foundCrit != pr.cur {
					sim.res.CritPreempts++
					if !t.halted && t.wake <= now && t.crit == 0 {
						pr.resume = pr.cur // give the CPU back afterwards
					}
				}
				found = foundCrit
			case !t.halted && t.wake <= now:
				found = pr.cur // no critical thread ready; stay put
			}
			if found < 0 {
				// Every thread that was ready this cycle blocked at a
				// use point; the processor idles until one wakes.
				sim.updateNext(pr, now+1)
				return nil
			}
			pr.cur = found
			t = &pr.threads[found]
		}

		// Compiled fast path: with a clean scoreboard and no pending
		// critical-priority rescheduling, the selected thread stays
		// selected for as long as it executes thread-private
		// instructions, so fused units run here in chains. Any bail-out
		// (no unit at pc, a boundary inside every reachable unit, a
		// trap) falls through to the interpreter below.
		if sim.eng != nil && t.maxReady <= now &&
			!(sim.cfg.CritPriority && t.crit == 0 && pr.critLive > 0) {
			nn, ran, err := sim.runCompiled(pr, t, now)
			if err != nil {
				return err
			}
			if ran {
				// A chain leaves the current thread live and runnable
				// (t.wake <= now < nn, and fused units never halt), so
				// updateNext would resolve to exactly nn; store it
				// directly and skip the thread scan.
				sim.wakes[pr.id] = nn
				return nil
			}
		}

		if t.pc < 0 || int(t.pc) >= len(sim.instrs) {
			return sim.runtimeErr(pr, t, 0, "pc %d out of range", t.pc)
		}
		in := &sim.instrs[t.pc]

		// Split-phase scoreboard: reading a register whose load has not
		// returned blocks the thread here. Under the use-based models
		// this is the context-switch point; under explicit-switch it
		// means the optimizer missed a Switch (counted, tested against).
		if t.maxReady > now {
			if ready, blocked := sim.sourceReady(t, in, now); blocked {
				switch sim.cfg.Model {
				case SwitchOnUse, SwitchOnUseMiss, SwitchEveryCycle, Ideal:
					// The read is the use; switching is the mechanism.
				default:
					sim.res.ImplicitWaits++
				}
				sim.takeSwitch(pr, t, ready, 0)
				if attempt < len(pr.threads) {
					continue // zero-cost switch: try another thread now
				}
				sim.updateNext(pr, now+1)
				return nil
			}
		}
		err := sim.execInstr(pr, t, in, now)
		if err != nil || sim.eng == nil {
			return err
		}
		// Post-instruction chain. When the instruction left this thread
		// current, live, runnable at the processor's next dispatch
		// cycle, and with a clean scoreboard, that dispatch would
		// select it again (selection stays on a runnable current
		// thread) and enter the compiled engine — so run the chain now
		// and save the dispatch round trip. The admission inside
		// runCompiled still bounds the chain by the pause, MaxCycles
		// and preemption boundaries at the future base cycle, so a
		// base beyond a boundary simply admits nothing.
		base := sim.wakes[pr.id]
		if base != never && &pr.threads[pr.cur] == t && !t.halted &&
			t.wake <= base && t.maxReady <= base &&
			!(sim.cfg.CritPriority && t.crit == 0 && pr.critLive > 0) {
			nn, ran, err := sim.runCompiled(pr, t, base)
			if err != nil {
				return err
			}
			if ran {
				sim.wakes[pr.id] = nn
			}
		}
		return nil
	}
}

// execInstr executes one decoded, unblocked instruction.
func (sim *m) execInstr(pr *proc, t *thread, in *isa.Instr, now int64) error {
	pc := t.pc
	op := in.Op
	cost := int64(op.Cost())
	// ti pins the executing thread's index: takeSwitch and yieldThread
	// rotate pr.cur before the metrics hook at the tail runs.
	ti := pr.cur
	if sim.mx != nil {
		sim.mx.BeginExec(int(pr.id), ti, now, t.wake)
	}

	if t.maxReady > now {
		// Writing a register supersedes any in-flight load targeting it
		// (the machine drains outstanding replies before reusing the
		// register — see the optimizer's WAW handling — so the stale
		// scoreboard entry must not block later readers of the new
		// value). A shared load re-marks its destination afterwards.
		sim.srcBuf = in.IntDests(sim.srcBuf[:0])
		for _, r := range sim.srcBuf {
			t.regReady[r] = 0
		}
		if d := in.FPDest(); d >= 0 {
			t.fregReady[d] = 0
		}
	}

	sim.res.Instrs++
	if in.Spin {
		sim.res.SpinProbes++
		pr.spinBusy += cost
	}
	pr.busy += cost
	t.runLen += cost
	t.sinceSwitch += cost
	next := pc + 1
	regs := &t.regs
	fregs := &t.fregs
	doSwitch := false
	var wake int64
	var switchCost int64

	switch op {
	case isa.Nop:

	// Integer ALU.
	case isa.Add:
		regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
	case isa.Sub:
		regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
	case isa.Mul:
		regs[in.Rd] = regs[in.Rs] * regs[in.Rt]
	case isa.Div:
		if regs[in.Rt] == 0 {
			return sim.runtimeErr(pr, t, pc, "integer division by zero")
		}
		regs[in.Rd] = regs[in.Rs] / regs[in.Rt]
	case isa.Rem:
		if regs[in.Rt] == 0 {
			return sim.runtimeErr(pr, t, pc, "integer remainder by zero")
		}
		regs[in.Rd] = regs[in.Rs] % regs[in.Rt]
	case isa.And:
		regs[in.Rd] = regs[in.Rs] & regs[in.Rt]
	case isa.Or:
		regs[in.Rd] = regs[in.Rs] | regs[in.Rt]
	case isa.Xor:
		regs[in.Rd] = regs[in.Rs] ^ regs[in.Rt]
	case isa.Nor:
		regs[in.Rd] = ^(regs[in.Rs] | regs[in.Rt])
	case isa.Sll:
		regs[in.Rd] = regs[in.Rs] << (uint64(regs[in.Rt]) & 63)
	case isa.Srl:
		regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(regs[in.Rt]) & 63))
	case isa.Sra:
		regs[in.Rd] = regs[in.Rs] >> (uint64(regs[in.Rt]) & 63)
	case isa.Slt:
		regs[in.Rd] = b2i(regs[in.Rs] < regs[in.Rt])
	case isa.Sltu:
		regs[in.Rd] = b2i(uint64(regs[in.Rs]) < uint64(regs[in.Rt]))

	case isa.Addi:
		regs[in.Rd] = regs[in.Rs] + in.Imm
	case isa.Muli:
		regs[in.Rd] = regs[in.Rs] * in.Imm
	case isa.Andi:
		regs[in.Rd] = regs[in.Rs] & in.Imm
	case isa.Ori:
		regs[in.Rd] = regs[in.Rs] | in.Imm
	case isa.Xori:
		regs[in.Rd] = regs[in.Rs] ^ in.Imm
	case isa.Slli:
		regs[in.Rd] = regs[in.Rs] << (uint64(in.Imm) & 63)
	case isa.Srli:
		regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(in.Imm) & 63))
	case isa.Srai:
		regs[in.Rd] = regs[in.Rs] >> (uint64(in.Imm) & 63)
	case isa.Slti:
		regs[in.Rd] = b2i(regs[in.Rs] < in.Imm)
	case isa.Li:
		regs[in.Rd] = in.Imm
	case isa.Mov:
		regs[in.Rd] = regs[in.Rs]

	// Register-bank moves and floating point.
	case isa.Fmov:
		fregs[in.Rd] = fregs[in.Rs]
	case isa.Mtf:
		fregs[in.Rd] = prog.BitsToFloat64(regs[in.Rs])
	case isa.Mff:
		regs[in.Rd] = prog.Float64Bits(fregs[in.Rs])
	case isa.Fadd:
		fregs[in.Rd] = fregs[in.Rs] + fregs[in.Rt]
	case isa.Fsub:
		fregs[in.Rd] = fregs[in.Rs] - fregs[in.Rt]
	case isa.Fmul:
		fregs[in.Rd] = fregs[in.Rs] * fregs[in.Rt]
	case isa.Fdiv:
		fregs[in.Rd] = fregs[in.Rs] / fregs[in.Rt]
	case isa.Fneg:
		fregs[in.Rd] = -fregs[in.Rs]
	case isa.Fabs:
		fregs[in.Rd] = math.Abs(fregs[in.Rs])
	case isa.Fsqrt:
		fregs[in.Rd] = math.Sqrt(fregs[in.Rs])
	case isa.Fmin:
		fregs[in.Rd] = math.Min(fregs[in.Rs], fregs[in.Rt])
	case isa.Fmax:
		fregs[in.Rd] = math.Max(fregs[in.Rs], fregs[in.Rt])
	case isa.CvtIF:
		fregs[in.Rd] = float64(regs[in.Rs])
	case isa.CvtFI:
		regs[in.Rd] = int64(fregs[in.Rs])
	case isa.Feq:
		regs[in.Rd] = b2i(fregs[in.Rs] == fregs[in.Rt])
	case isa.Flt:
		regs[in.Rd] = b2i(fregs[in.Rs] < fregs[in.Rt])
	case isa.Fle:
		regs[in.Rd] = b2i(fregs[in.Rs] <= fregs[in.Rt])

	// Control flow.
	case isa.Beq:
		if regs[in.Rs] == regs[in.Rt] {
			next = in.Target
		}
	case isa.Bne:
		if regs[in.Rs] != regs[in.Rt] {
			next = in.Target
		}
	case isa.Blt:
		if regs[in.Rs] < regs[in.Rt] {
			next = in.Target
		}
	case isa.Bge:
		if regs[in.Rs] >= regs[in.Rt] {
			next = in.Target
		}
	case isa.Beqz:
		if regs[in.Rs] == 0 {
			next = in.Target
		}
	case isa.Bnez:
		if regs[in.Rs] != 0 {
			next = in.Target
		}
	case isa.J:
		next = in.Target
	case isa.Jal:
		regs[isa.RRet] = int64(pc + 1)
		next = in.Target
	case isa.Jr:
		next = int32(regs[in.Rs])
		if next < 0 || int(next) >= len(sim.instrs) {
			return sim.runtimeErr(pr, t, pc, "jr to invalid address %d", regs[in.Rs])
		}
	case isa.Halt:
		t.halted = true
		pr.live--
		sim.live--
		if t.crit > 0 {
			pr.critLive--
		}
		if sim.cfg.CollectRunLengths && t.runLen > 0 {
			sim.res.RunLengths.Add(t.runLen)
		}
		if sim.mx != nil {
			sim.mx.EndExec(int(pr.id), ti, now, cost, 0)
		}
		sim.updateNext(pr, now+cost)
		return nil

	// Local memory: serviced without network traffic or switches (§3).
	case isa.Lw, isa.Ld, isa.Flw, isa.Sw, isa.Sd, isa.Fsw:
		addr := regs[in.Rs] + in.Imm
		hi := addr
		if op == isa.Ld || op == isa.Sd {
			hi = addr + 1
		}
		if addr < 0 || hi >= int64(len(t.local)) {
			return sim.runtimeErr(pr, t, pc, "local address %d outside [0,%d)", addr, len(t.local))
		}
		switch op {
		case isa.Lw:
			regs[in.Rd] = t.local[addr]
		case isa.Ld:
			regs[in.Rd] = t.local[addr]
			regs[in.Rd+1] = t.local[addr+1]
		case isa.Flw:
			fregs[in.Rd] = prog.BitsToFloat64(t.local[addr])
		case isa.Sw:
			t.local[addr] = regs[in.Rt]
		case isa.Sd:
			t.local[addr] = regs[in.Rt]
			t.local[addr+1] = regs[in.Rt+1]
		case isa.Fsw:
			t.local[addr] = prog.Float64Bits(fregs[in.Rt])
		}

	// Shared loads (including Fetch-and-Add).
	case isa.LwS, isa.LdS, isa.FlwS, isa.Faa:
		addr := regs[in.Rs] + in.Imm
		hi := addr
		if op == isa.LdS {
			hi = addr + 1
		}
		if addr < 0 || hi >= int64(len(sim.sh)) {
			return sim.runtimeErr(pr, t, pc, "shared address %d outside [0,%d)", addr, len(sim.sh))
		}
		// Data visibility is immediate; latency affects timing only.
		switch op {
		case isa.LwS:
			regs[in.Rd] = sim.sh[addr]
		case isa.LdS:
			regs[in.Rd] = sim.sh[addr]
			regs[in.Rd+1] = sim.sh[addr+1]
		case isa.FlwS:
			fregs[in.Rd] = prog.BitsToFloat64(sim.sh[addr])
		case isa.Faa:
			old := sim.sh[addr]
			sim.sh[addr] += regs[in.Rt]
			regs[in.Rd] = old
		}
		sim.res.SharedLoads++
		if sim.trace != nil {
			sim.trace(TraceEvent{Cycle: now, Proc: pr.id, Thread: t.regs[isa.RTid], PC: pc, Op: op, Addr: addr})
		}
		wake, switchCost, doSwitch = sim.sharedLoadTiming(pr, t, in, addr, now)
		if sim.cfg.CheckInvariants && pr.cache != nil {
			if err := sim.checkCoherence(pr.cache.Line(addr)); err != nil {
				return err
			}
		}

	// Shared stores: fire-and-forget (§2).
	case isa.SwS, isa.SdS, isa.FswS:
		addr := regs[in.Rs] + in.Imm
		hi := addr
		if op == isa.SdS {
			hi = addr + 1
		}
		if addr < 0 || hi >= int64(len(sim.sh)) {
			return sim.runtimeErr(pr, t, pc, "shared address %d outside [0,%d)", addr, len(sim.sh))
		}
		dataBits := net.WordBits
		switch op {
		case isa.SwS:
			sim.sh[addr] = regs[in.Rt]
		case isa.SdS:
			sim.sh[addr] = regs[in.Rt]
			sim.sh[addr+1] = regs[in.Rt+1]
			dataBits = net.DoubleBits
		case isa.FswS:
			sim.sh[addr] = prog.Float64Bits(fregs[in.Rt])
			dataBits = net.DoubleBits
		}
		sim.res.SharedStores++
		if sim.trace != nil {
			sim.trace(TraceEvent{Cycle: now, Proc: pr.id, Thread: t.regs[isa.RTid], PC: pc, Op: op, Addr: addr})
		}
		if pr.cache == nil {
			// No cache: stores write through the network directly.
			sim.record(in, net.WriteReq, dataBits)
			sim.record(in, net.WriteAck, 0)
		} else {
			// Write-back cache: a store owns its line; traffic happens
			// on ownership changes and eventual write-back, not per
			// store.
			sim.cachedStore(pr, in, addr)
			if op == isa.SdS && pr.cache.Line(addr) != pr.cache.Line(addr+1) {
				sim.cachedStore(pr, in, addr+1)
			}
			if sim.cfg.CheckInvariants {
				if err := sim.checkCoherence(pr.cache.Line(addr)); err != nil {
					return err
				}
				if err := sim.checkCoherence(pr.cache.Line(hi)); err != nil {
					return err
				}
			}
		}

	// Multithreading control.
	case isa.Switch:
		forced := sim.cfg.RunLimit > 0 && t.sinceSwitch >= int64(sim.cfg.RunLimit)
		switch {
		case sim.cfg.Model == Ideal:
			sim.res.SkippedSwitches++
		case t.maxReady > now:
			doSwitch, wake = true, t.maxReady
		case forced:
			doSwitch, wake = true, now+cost
			sim.res.ForcedSwitches++
		default:
			sim.res.SkippedSwitches++
		}
	case isa.Use:
		if r := t.regReady[in.Rs]; r > now {
			doSwitch, wake = true, r
		}
	case isa.CritEnter:
		t.crit++
		if t.crit == 1 {
			pr.critLive++
		}
	case isa.CritExit:
		if t.crit > 0 {
			t.crit--
			if t.crit == 0 {
				pr.critLive--
			}
		}

	default:
		return sim.runtimeErr(pr, t, pc, "unimplemented opcode %s", op)
	}

	t.pc = next
	if !doSwitch && pr.live > 1 && sim.cfg.Model != SwitchEveryCycle {
		if in.Spin && op.IsSharedAccess() && t.maxReady <= now {
			// A synchronization spin probe that completed instantly and
			// did not context switch (ideal machine, or a cache hit
			// under the miss-based models) yields voluntarily so
			// round-robin siblings can progress toward the awaited
			// event. The paper assumes real machines avoid spinning
			// altogether (§6.1 footnote 2); without this, a hitting
			// spin loop wedges its processor. The yield is not a
			// latency-driven switch, so it stays out of the switch
			// counts and run-length statistics.
			sim.yieldThread(pr, t, now+cost)
		} else if sim.preempt > 0 && t.sinceSwitch >= sim.preempt {
			// Starvation watchdog for non-spin pathologies.
			sim.yieldThread(pr, t, now+cost)
		}
	}
	if doSwitch {
		sim.takeSwitch(pr, t, wake, switchCost)
	} else if sim.cfg.Model == SwitchEveryCycle {
		// Rotate after every instruction. This is the scheduling
		// mechanism of the model rather than a latency-driven switch,
		// so it stays out of the run-length distribution (which would
		// be identically ~1).
		pr.cur = (pr.cur + 1) % len(pr.threads)
	}
	if sim.mx != nil {
		sim.mx.EndExec(int(pr.id), ti, now, cost, switchCost)
	}
	sim.updateNext(pr, now+cost+switchCost)
	return nil
}

// sharedLoadTiming applies the context-switch policy to a shared load
// issued at cycle now by thread t. It returns the wake cycle and overhead
// if the policy switches immediately.
func (sim *m) sharedLoadTiming(pr *proc, t *thread, in *isa.Instr, addr, now int64) (wake, switchCost int64, taken bool) {
	op := in.Op
	lat := sim.lat
	if sim.congestion != nil {
		lat = sim.congestion.Latency(now)
	}
	if sim.topo != nil {
		// Route the access over the explicit link graph: a request to
		// the address's memory module and the reply back, each paying
		// queueing delay on every congested link.
		reqBits, replyBits := roundTripBits(op)
		lat = sim.topo.RoundTrip(now, int(pr.id), addr, reqBits, replyBits)
	}
	ready := now + lat
	if sim.faults != nil {
		// Fault injection + recovery protocol: the entire drop/retry
		// schedule is resolved at issue time, so the split-phase
		// scoreboard sees only the final completion cycle.
		ready = sim.faults.Deliver(now, lat)
		if sim.mx != nil {
			// The protocol's overhead (timeouts, retries, backoff) is
			// booked as fault-recovery debt: the stall it later causes
			// is split out of plain stalled-on-memory time.
			sim.mx.AddFaultDebt(int(pr.id), pr.cur, sim.faults.LastOverhead())
		}
	}
	if sim.jitter > 0 && sim.lat > 0 {
		// Deterministic per-access congestion deviation: delivery is no
		// longer ordered, but the scoreboard tracks each load's own
		// completion time, so semantics are unaffected.
		h := uint64(addr)*0x9E3779B97F4A7C15 ^ uint64(now)*0x2545F4914F6CDD1D
		h ^= h >> 29
		ready += int64(h%uint64(2*sim.jitter+1)) - sim.jitter
	}
	dataBits := net.WordBits
	if op == isa.LdS || op == isa.FlwS {
		dataBits = net.DoubleBits
	}

	switch sim.cfg.Model {
	case Ideal:
		// Zero latency; still record what the traffic would have been.
		sim.recordUncachedLoad(in, dataBits)
		return 0, 0, false

	case SwitchEveryCycle:
		sim.recordUncachedLoad(in, dataBits)
		// The per-instruction rotation handles the switching; block the
		// thread until the result returns.
		t.wake = ready
		return 0, 0, false

	case SwitchOnLoad:
		sim.recordUncachedLoad(in, dataBits)
		return ready, int64(sim.cfg.SwitchCost), true

	case SwitchOnUse, ExplicitSwitch:
		sim.recordUncachedLoad(in, dataBits)
		if t.window != nil && op != isa.Faa {
			// §5.2 estimate: a load hitting the one-line window is
			// treated as if it had been issued with the reference that
			// established the window, inheriting its completion time.
			if wr, hit := t.window.Probe(addr, ready); hit {
				ready = wr
			}
		}
		sim.markPending(t, in, ready, now)
		return 0, 0, false

	case SwitchOnMiss, SwitchOnUseMiss, ConditionalSwitch:
		if op == isa.Faa {
			// Fetch-and-Add is performed at the memory module, bypasses
			// the cache, and invalidates cached copies of its line.
			sim.record(in, net.FaaReq, net.WordBits)
			sim.record(in, net.FaaReply, net.WordBits)
			sim.faaCoherence(pr, in, addr)
			if sim.cfg.Model == SwitchOnMiss {
				return ready, int64(sim.cfg.SwitchCost), true
			}
			sim.markPending(t, in, ready, now)
			return 0, 0, false
		}
		hit := pr.cache.Lookup(addr)
		if !hit {
			sim.fillLine(pr, in, addr)
		}
		if op == isa.LdS && pr.cache.Line(addr) != pr.cache.Line(addr+1) {
			// A double straddling a line boundary probes both lines.
			hit2 := pr.cache.Lookup(addr + 1)
			if !hit2 {
				sim.fillLine(pr, in, addr+1)
			}
			hit = hit && hit2
		}
		if hit {
			if sim.mx != nil {
				sim.mx.MarkHit() // a continuing hit, not plain running
			}
			return 0, 0, false
		}
		if sim.cfg.Model == SwitchOnMiss {
			return ready, int64(sim.cfg.SwitchCost), true
		}
		// SwitchOnUseMiss, ConditionalSwitch: split phase.
		sim.markPending(t, in, ready, now)
		return 0, 0, false
	}
	return 0, 0, false
}

// markPending records a split-phase load's completion time in the
// destination-register scoreboard.
func (sim *m) markPending(t *thread, in *isa.Instr, ready, now int64) {
	if ready <= now {
		return
	}
	switch in.Op {
	case isa.LwS, isa.Faa:
		t.regReady[in.Rd] = ready
	case isa.LdS:
		t.regReady[in.Rd] = ready
		t.regReady[in.Rd+1] = ready
	case isa.FlwS:
		t.fregReady[in.Rd] = ready
	}
	if ready > t.maxReady {
		t.maxReady = ready
	}
}

// sourceReady checks whether any source register of in is still pending
// at cycle now. Switch and Use handle their own waiting.
func (sim *m) sourceReady(t *thread, in *isa.Instr, now int64) (ready int64, blocked bool) {
	if in.Op == isa.Switch || in.Op == isa.Use {
		return 0, false
	}
	sim.srcBuf = in.IntSources(sim.srcBuf[:0])
	for _, r := range sim.srcBuf {
		if t.regReady[r] > now && t.regReady[r] > ready {
			ready = t.regReady[r]
		}
	}
	sim.srcBuf = in.FPSources(sim.srcBuf[:0])
	for _, r := range sim.srcBuf {
		if t.fregReady[r] > now && t.fregReady[r] > ready {
			ready = t.fregReady[r]
		}
	}
	return ready, ready > 0
}

// takeSwitch performs a context switch: record the thread's run-length,
// block it until wake, charge overhead, and advance round-robin order.
// Outstanding loads newer than the one waited on (possible under the
// use-based models) keep their scoreboard entries.
func (sim *m) takeSwitch(pr *proc, t *thread, wake, switchCost int64) {
	sim.res.TakenSwitches++
	if sim.cfg.CollectRunLengths && t.runLen > 0 {
		sim.res.RunLengths.Add(t.runLen)
	}
	t.runLen = 0
	t.sinceSwitch = 0
	if wake > t.wake {
		t.wake = wake
	}
	pr.switchOverhead += switchCost
	if pr.resume >= 0 {
		// Return the CPU to the thread a critical-region preemption
		// displaced rather than the round-robin successor.
		pr.cur = pr.resume
		pr.resume = -1
		return
	}
	pr.cur = (pr.cur + 1) % len(pr.threads)
}

// yieldThread rotates away from a thread without recording a context
// switch: used for spin-probe yields and the starvation watchdog, which
// are scheduling hygiene rather than latency-hiding switches.
func (sim *m) yieldThread(pr *proc, t *thread, wake int64) {
	sim.res.PreemptSwitches++
	if wake > t.wake {
		t.wake = wake
	}
	t.sinceSwitch = 0
	pr.cur = (pr.cur + 1) % len(pr.threads)
}

// updateNext recomputes the earliest cycle at which pr can execute.
func (sim *m) updateNext(pr *proc, earliest int64) {
	if pr.live == 0 {
		sim.wakes[pr.id] = never
		return
	}
	best := int64(never)
	for i := range pr.threads {
		t := &pr.threads[i]
		if t.halted {
			continue
		}
		r := t.wake
		if r < earliest {
			r = earliest
		}
		if r < best {
			best = r
		}
	}
	sim.wakes[pr.id] = best
}

// lineBits is the data payload of a full line transfer.
func (sim *m) lineBits() int { return sim.lineSz * net.DoubleBits }

// fillLine services a cache miss: flush a remote dirty owner if any,
// fetch the line, install it (writing back a dirty victim), and keep the
// directory current.
func (sim *m) fillLine(pr *proc, in *isa.Instr, addr int64) {
	line := pr.cache.Line(addr)
	sim.resolveDirty(pr, in, line, false)
	sim.record(in, net.LineReq, 0)
	sim.record(in, net.LineReply, sim.lineBits())
	sim.installLine(pr, in, addr)
}

// installLine puts the line holding addr into pr's cache, accounting the
// write-back of a dirty victim.
func (sim *m) installLine(pr *proc, in *isa.Instr, addr int64) {
	evicted, evictedDirty, did := pr.cache.Fill(addr)
	if did {
		sim.dir.RemoveSharer(evicted, pr.id)
		if evictedDirty {
			sim.record(in, net.WriteBack, sim.lineBits())
			delete(sim.dirtyOwner, evicted)
		}
	}
	sim.dir.AddSharer(pr.cache.Line(addr), pr.id)
}

// resolveDirty handles a remote processor holding line modified: the
// owner writes the line back; on a read it keeps a clean copy, on a
// write/Fetch-and-Add it is invalidated too.
func (sim *m) resolveDirty(pr *proc, in *isa.Instr, line int64, invalidate bool) {
	owner, ok := sim.dirtyOwner[line]
	if !ok || owner == pr.id {
		return
	}
	oc := sim.procs[owner].cache
	addr := line * int64(sim.lineSz)
	sim.record(in, net.Inval, 0) // flush request to the owner
	sim.record(in, net.WriteBack, sim.lineBits())
	if invalidate {
		oc.Invalidate(addr)
		sim.dir.RemoveSharer(line, owner)
	} else {
		oc.CleanLine(addr)
	}
	delete(sim.dirtyOwner, line)
}

// cachedStore applies write-back coherence to a shared store by pr into
// the line holding addr. A store to an already-owned line is free; an
// upgrade invalidates remote sharers; a store miss write-allocates.
func (sim *m) cachedStore(pr *proc, in *isa.Instr, addr int64) {
	line := pr.cache.Line(addr)
	if pr.cache.IsDirty(addr) {
		return // already owned: the common, free case
	}
	if pr.cache.Contains(addr) {
		// Upgrade: invalidate the other sharers.
		sim.invalidateRemotes(pr, in, line)
		pr.cache.SetDirty(addr)
		sim.dirtyOwner[line] = pr.id
		return
	}
	// Store miss: flush and invalidate any remote owner and sharers,
	// then write-allocate.
	sim.resolveDirty(pr, in, line, true)
	sim.invalidateRemotes(pr, in, line)
	sim.record(in, net.LineReq, 0)
	sim.record(in, net.LineReply, sim.lineBits())
	sim.installLine(pr, in, addr)
	pr.cache.SetDirty(addr)
	sim.dirtyOwner[line] = pr.id
}

// invalidateRemotes invalidates every remote cached copy of line,
// counting one invalidation and one acknowledgement per copy — the §6.1
// coherency overhead.
func (sim *m) invalidateRemotes(pr *proc, in *isa.Instr, line int64) {
	sim.shrBuf = sim.dir.Sharers(line, sim.shrBuf[:0])
	addr := line * int64(sim.lineSz)
	for _, p := range sim.shrBuf {
		if p == pr.id {
			continue
		}
		sim.procs[p].cache.Invalidate(addr)
		sim.dir.RemoveSharer(line, p)
		sim.record(in, net.Inval, 0)
		sim.record(in, net.InvalAck, 0)
	}
}

// faaCoherence keeps caches coherent with a Fetch-and-Add performed at
// the memory module: any dirty copy (even the requester's) is written
// back and every cached copy is invalidated.
func (sim *m) faaCoherence(pr *proc, in *isa.Instr, addr int64) {
	line := pr.cache.Line(addr)
	if owner, ok := sim.dirtyOwner[line]; ok {
		oc := sim.procs[owner].cache
		if owner != pr.id {
			sim.record(in, net.Inval, 0)
		}
		sim.record(in, net.WriteBack, sim.lineBits())
		oc.Invalidate(line * int64(sim.lineSz))
		sim.dir.RemoveSharer(line, owner)
		delete(sim.dirtyOwner, line)
	}
	sim.shrBuf = sim.dir.Sharers(line, sim.shrBuf[:0])
	for _, p := range sim.shrBuf {
		sim.procs[p].cache.Invalidate(line * int64(sim.lineSz))
		sim.dir.RemoveSharer(line, p)
		if p != pr.id {
			sim.record(in, net.Inval, 0)
			sim.record(in, net.InvalAck, 0)
		}
	}
}

// checkCoherence validates the protocol invariants for line after a
// coherence action (Config.CheckInvariants):
//
//  1. a line with a dirty owner is cached dirty by that owner and by no
//     other processor;
//  2. every directory sharer actually holds the line, and is listed
//     once;
//  3. no cache holds a line dirty without being its registered owner.
func (sim *m) checkCoherence(line int64) error {
	addr := line * int64(sim.lineSz)
	owner, hasOwner := sim.dirtyOwner[line]
	sim.shrBuf = sim.dir.Sharers(line, sim.shrBuf[:0])
	for i, p := range sim.shrBuf {
		if slices.Contains(sim.shrBuf[:i], p) {
			return fmt.Errorf("machine: coherence: directory lists proc %d twice for line %d", p, line)
		}
		if !sim.procs[p].cache.Contains(addr) {
			return fmt.Errorf("machine: coherence: directory lists proc %d for line %d but its cache lacks it", p, line)
		}
	}
	if hasOwner {
		if !sim.procs[owner].cache.IsDirty(addr) {
			return fmt.Errorf("machine: coherence: line %d owner %d holds it clean", line, owner)
		}
		if len(sim.shrBuf) != 1 || sim.shrBuf[0] != owner {
			return fmt.Errorf("machine: coherence: dirty line %d has sharers %v (owner %d)", line, sim.shrBuf, owner)
		}
	}
	for pi := range sim.procs {
		pr := &sim.procs[pi]
		if pr.cache.IsDirty(addr) && (!hasOwner || owner != pr.id) {
			return fmt.Errorf("machine: coherence: proc %d holds line %d dirty without ownership", pr.id, line)
		}
	}
	return nil
}

// roundTripBits returns the request and reply message sizes of a
// shared access, for routing over an explicit topology.
func roundTripBits(op isa.Op) (reqBits, replyBits int64) {
	switch op {
	case isa.Faa:
		return net.Bits(net.FaaReq, net.WordBits), net.Bits(net.FaaReply, net.WordBits)
	case isa.LdS, isa.FlwS:
		return net.Bits(net.ReadReq, 0), net.Bits(net.ReadReply, net.DoubleBits)
	}
	return net.Bits(net.ReadReq, 0), net.Bits(net.ReadReply, net.WordBits)
}

// recordUncachedLoad accounts an uncached shared read or Fetch-and-Add.
func (sim *m) recordUncachedLoad(in *isa.Instr, dataBits int) {
	if in.Op == isa.Faa {
		sim.record(in, net.FaaReq, net.WordBits)
		sim.record(in, net.FaaReply, net.WordBits)
		return
	}
	sim.record(in, net.ReadReq, 0)
	sim.record(in, net.ReadReply, dataBits)
}

// record adds a message to the traffic accounting, routing spin-loop
// traffic to the excluded bucket. All traffic — spinning included —
// loads the congestion model: the network carries it either way.
func (sim *m) record(in *isa.Instr, mt net.MsgType, dataBits int) {
	if sim.congestion != nil {
		sim.congestion.Add(sim.nowApprox, net.Bits(mt, dataBits))
	}
	if in.Spin {
		sim.res.Traffic.AddSpin(mt, dataBits)
		return
	}
	sim.res.Traffic.Add(mt, dataBits)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
