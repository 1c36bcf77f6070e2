package machine

import (
	"fmt"

	"mtsim/internal/machine/jit"
)

// This file drives the compiled dispatch engine (internal/machine/jit).
// The interpreter in execInstr pays a full decoded switch per simulated
// instruction; the engine executes whole fused units — and, via jump
// threading, chains of units — per dispatch. The two are byte-identical
// in every observable, which rests on three invariants:
//
//  1. Privacy. A unit contains only opt.Fusible instructions, which
//     read and write thread-private state exclusively (registers,
//     local memory, the pc). Other processors can neither observe nor
//     be observed by a fused chain, so letting one thread run several
//     simulated cycles ahead inside a cohort pass reorders nothing
//     that any cross-thread channel (shared memory, caches, traffic,
//     the fault plan's access sequence) could distinguish. Every
//     non-private instruction takes the interpreter slow path at its
//     exact cycle, in the exact cohort order, as before.
//
//  2. Boundary prechecks. A unit is entered only if its complete
//     execution provably crosses no boundary the interpreter would
//     act on mid-run: the RunUntil pause bound and MaxCycles guard
//     (no instruction may *begin* at a cycle >= until or > MaxCycles
//     — PreCost bounds the last issue cycle) and the preemption
//     watchdog (the post-instruction sinceSwitch test can only fire
//     after the chain's last instruction, never inside it). When a
//     boundary falls inside every reachable unit, the chain stops and
//     the interpreter executes instruction-by-instruction, landing
//     pauses, preemptions and errors on the identical cycle.
//
//  3. Trap-before-effect. A fusible instruction that can fault (div/
//     rem by zero, local memory bounds, jr range) checks its
//     precondition before any state change and aborts the unit. The
//     driver accounts the completed prefix, leaves t.pc at the
//     faulting instruction, and lets the interpreter re-execute it to
//     produce the identical error (or, for a re-entered unit mid-pc,
//     the identical architectural effect).
//
// Eligibility gating: newSim builds no engine under switch-every-cycle
// (rotation after every instruction leaves nothing to fuse) or when the
// config forces the interpreter. Per dispatch, the execOne hook
// additionally requires a unit starting at t.pc (elsewhere RunChain
// would run nothing), a clean scoreboard (t.maxReady <= now — also why
// fused units may skip the WAW reply-drain clear entirely) and no
// pending critical-priority rescheduling. CollectMetrics does not
// matter: flushChain accounts a whole chain as one BeginExec/EndExec
// pair of its summed cost, which equals the interpreter's pair per
// instruction because the chain's instructions issue back to back and,
// being private (invariant 1), never hit a cache and never switch. A
// DispatchCompiled run that ends up without an engine is an error, so
// forcing the engine can never silently measure the interpreter.

// runCompiled executes as many fused units as boundaries allow,
// starting at t.pc at cycle now, threading jumps from unit to unit. It
// returns the processor's next event cycle and whether any instruction
// executed; ran=false means the interpreter should dispatch as usual.
func (sim *m) runCompiled(pr *proc, t *thread, now int64) (nn int64, ran bool, err error) {
	// lim folds the RunUntil pause bound and the MaxCycles guard into a
	// single issue-cycle ceiling: no fused instruction may begin at a
	// cycle >= until or > MaxCycles.
	lim := sim.until - 1
	if maxc := sim.cfg.MaxCycles; maxc < lim {
		lim = maxc
	}
	// budget is the strict bound on the chain's total cost from the
	// preemption watchdog: after an instruction pushes sinceSwitch to
	// preempt or beyond, the interpreter yields, so a chain may only
	// contain instructions that keep sinceSwitch strictly below it.
	budget := int64(never)
	if sim.preempt > 0 && pr.live > 1 {
		budget = sim.preempt - t.sinceSwitch
	}
	// tick bounds instructions per RunChain call so cancellation polling
	// keeps its cadence; without a context the chain runs unbounded.
	tick := int64(never)
	poll := sim.ctxDone != nil
	if poll {
		tick = sim.cancelTick
	}
	var cost, instrs int64
	pc := t.pc
	for {
		sim.eng.SetBounds(lim, budget-cost, tick)
		next, c, n, more := sim.eng.RunChain(&t.regs, &t.fregs, t.local, pc, now+cost)
		pc = next
		cost += c
		instrs += n
		if poll {
			sim.cancelTick -= n
		}
		if !more {
			// Chain over: boundary, missing unit, or trap. In the trap
			// case the prefix executed and the trapping instruction did
			// not — the interpreter re-executes it at pc.
			break
		}
		if err := sim.pollCancel(now + cost); err != nil {
			sim.flushChain(pr, t, now, pc, cost, instrs)
			return 0, true, err
		}
		tick = sim.cancelTick
	}
	if instrs == 0 {
		return 0, false, nil
	}
	sim.flushChain(pr, t, now, pc, cost, instrs)
	return now + cost, true, nil
}

// flushChain applies the bulk accounting of a chain that began issuing
// at cycle now: exactly the per-instruction updates the interpreter
// would have made, summed.
func (sim *m) flushChain(pr *proc, t *thread, now int64, pc int32, cost, instrs int64) {
	if sim.mx != nil {
		// One pair of the summed cost equals the interpreter's pair per
		// instruction: each issue closes the previous instruction's
		// timeline with no gap to classify, and a chain never hits a
		// cache and never switches.
		sim.mx.BeginExec(int(pr.id), pr.cur, now, t.wake)
		sim.mx.EndExec(int(pr.id), pr.cur, now, cost, 0)
	}
	t.pc = pc
	t.runLen += cost
	t.sinceSwitch += cost
	pr.busy += cost
	sim.res.Instrs += instrs
}

// compileEngine builds the compiled engine when the configuration is
// eligible, or leaves sim.eng nil to interpret everything. It fails a
// DispatchCompiled run that got no engine.
func (sim *m) compileEngine() error {
	cfg := &sim.cfg
	if cfg.DispatchMode != DispatchInterpreted && cfg.Model != SwitchEveryCycle {
		sim.eng = jit.Compile(sim.prg)
	}
	if cfg.DispatchMode == DispatchCompiled && sim.eng == nil {
		return fmt.Errorf("machine: DispatchCompiled built no compiled engine for %s", cfg.Model)
	}
	return nil
}
