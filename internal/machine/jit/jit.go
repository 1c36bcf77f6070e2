// Package jit is the machine's compiled dispatch engine: at program
// load it cuts the instruction stream into fusible runs (opt.FuseRuns)
// and grows each run start into a compiled *trace* — an extended basic
// block that follows unconditional jumps at compile time, turns
// conditional branches into in-trace side exits, and unrolls a loop
// whose backedge returns to the trace's own head — so the run loop
// executes whole loop iterations per dispatch instead of paying one
// decoded switch per simulated instruction.
//
// A trace compiles into a single closure over its pre-decoded micro-op
// array: executing a trace costs one indirect call however many
// instructions it covers. Control flow lives inside the closure too — a
// conditional branch micro-op returns its own index when taken, an
// unconditional jump keeps only a placeholder micro-op for its place in
// the path numbering (its target was resolved at compile time) — so the
// chain walk outside the closure touches only unit-granular state:
// admission, cost accounting, and the successor pc.
//
// The engine trades no accuracy for that speed. A trace contains only
// instructions that touch thread-private state (opt.Fusible): integer
// and FP ALU, register moves, local memory, and control flow. Per-unit
// cost metadata (Cost, PreCost, CostBefore) lets the driver in
// internal/machine prove, before entering a unit, that no pause point,
// cycle budget, or preemption boundary falls inside its longest path;
// anything the unit cannot prove safe — a fault such as division by
// zero, a local address out of bounds, a jr out of range — traps
// *before* executing the offending instruction, so the interpreter
// re-executes it and produces the identical architectural effect (or
// the identical error).
//
// The package deliberately knows nothing about the machine's internal
// types: closures operate on the raw register banks and local memory a
// thread hands over, which keeps the compiler independently testable.
package jit

import (
	"math"

	"mtsim/internal/isa"
	"mtsim/internal/opt"
	"mtsim/internal/prog"
)

// uop is one pre-decoded fusible instruction: opcode plus register
// indices already masked into range and the immediate already folded
// (shift amounts reduced mod 64, jal's link pc materialized, a
// branch's taken-target pc substituted), so the trace closure executes
// it with no further decoding.
type uop struct {
	op         isa.Op
	rd, rs, rt uint8
	rd1, rt1   uint8 // high halves of double-word transfers
	imm        int64
}

// traceFn executes a trace's fused micro-ops against a thread's private
// state. It returns (-1, false) when the full path ran, (i, false) when
// branch micro-op i was taken (i+1 path instructions executed, the
// successor is the branch's pre-decoded target), and (i, true) when
// micro-op i would fault — in which case it has made no state change at
// all.
type traceFn func(r *[isa.NumIntRegs]int64, f *[isa.NumFPRegs]float64, local []int64) (int32, bool)

// Unit is one compiled trace. Path instruction i is micro-op i (the jr
// terminal, when present, is path instruction N-1 and has no micro-op);
// pcs, prefix and CostBefore all index that numbering.
type Unit struct {
	// Start is the pc of the trace's first instruction.
	Start int32
	// N is the instruction count of the full path — the upper bound on
	// what one Run can execute; side exits execute a strict prefix.
	N int64
	// Cost is the busy-cycle cost of the full path.
	Cost int64
	// PreCost is the cost consumed before the full path's last
	// instruction begins: a unit entered at cycle c issues no
	// instruction later than c+PreCost (side exits only tighten this).
	// The driver admits a unit only when no boundary (pause, MaxCycles,
	// preemption) falls inside [c, c+PreCost], so partial execution
	// happens only via a side exit or a trap — both exactly accounted.
	PreCost int64

	run     traceFn
	ops     []uop
	fall    int32 // successor pc when the trace completes without a jr
	jr      bool
	termRs  uint8
	termPC  int32 // pc of the jr, for trap reporting
	progLen int64
	pcs     []int32 // pcs[i] = original pc of path instruction i
	prefix  []int64 // prefix[i] = cost of the first i instructions; N+1 entries
}

// Run executes the trace. It returns the successor pc and the number of
// instructions that executed (CostBefore(n) is their cost). trapped
// reports that instruction n would fault: nothing of it executed, next
// is its pc, and the caller must leave the chain so the interpreter can
// re-execute it. A taken side exit is a normal return with n covering
// the branch itself and next its target.
func (u *Unit) Run(r *[isa.NumIntRegs]int64, f *[isa.NumFPRegs]float64, local []int64) (next int32, n int32, trapped bool) {
	i, trap := u.run(r, f, local)
	if i >= 0 {
		if trap {
			return u.pcs[i], i, true
		}
		return int32(u.ops[i].imm), i + 1, false
	}
	n = int32(u.N)
	if u.jr {
		a := r[u.termRs&31]
		if a < 0 || a >= u.progLen {
			return u.termPC, n - 1, true
		}
		return int32(a), n, false
	}
	return u.fall, n, false
}

// CostBefore returns the busy-cycle cost of the trace's first n path
// instructions — the cycles consumed when Run returned n.
func (u *Unit) CostBefore(n int) int64 { return u.prefix[n] }

// RunChain executes fused units starting at pc at cycle now, threading
// control from unit to unit (Unit.Run, inlined: chains are the engine's
// hottest loop and pay no per-unit method call here). A unit is entered
// only when its full path provably crosses no boundary: no instruction
// may issue after cycle lim, and the chain's total cost must stay
// strictly below budget. The chain ends at the first pc with no unit,
// at a boundary, or at a trap — in every case the returned pc is where
// the interpreter must continue, with cost and instrs the exact
// consumption of what did execute.
//
// tick bounds the instructions executed per call: when the count
// reaches it, RunChain returns more=true so the caller can poll for
// cancellation and re-enter. Boundary and trap returns have more=false.
//
// The lim/budget/tick bounds travel via SetBounds rather than as
// parameters: with them in the argument list the call exceeds the
// register ABI and spills to the stack on every dispatch.
func (cp *Program) RunChain(r *[isa.NumIntRegs]int64, f *[isa.NumFPRegs]float64, local []int64, pc int32, now int64) (next int32, cost, instrs int64, more bool) {
	units := cp.Units
	lim, budget, tick := cp.lim, cp.budget, cp.tick
	for {
		if instrs >= tick {
			return pc, cost, instrs, true
		}
		if uint32(pc) >= uint32(len(units)) {
			return pc, cost, instrs, false
		}
		u := units[pc]
		if u == nil {
			return pc, cost, instrs, false
		}
		if now+cost+u.PreCost > lim || cost+u.Cost >= budget {
			return pc, cost, instrs, false
		}
		i, trap := u.run(r, f, local)
		if i >= 0 {
			if trap {
				// The prefix executed, micro-op i did not; the
				// interpreter re-executes it at its pc.
				instrs += int64(i)
				cost += u.prefix[i]
				return u.pcs[i], cost, instrs, false
			}
			// Side exit: branch i taken to its pre-decoded target.
			instrs += int64(i) + 1
			cost += u.prefix[i+1]
			pc = int32(u.ops[i].imm)
			continue
		}
		if u.jr {
			a := r[u.termRs&31]
			if a < 0 || a >= u.progLen {
				instrs += u.N - 1
				cost += u.prefix[u.N-1]
				return u.termPC, cost, instrs, false
			}
			instrs += u.N
			cost += u.Cost
			pc = int32(a)
			continue
		}
		instrs += u.N
		cost += u.Cost
		pc = u.fall
	}
}

// Program is a compiled program: units indexed by the pc of their first
// instruction (nil where no fusible run starts).
type Program struct {
	Units []*Unit
	// Fused counts instructions covered by some fusible run; with Total
	// it summarizes static coverage for tests and diagnostics. Traces
	// may additionally duplicate instructions they reach by following
	// jumps, so coverage is a floor on what executes fused.
	Fused, Total int

	// RunChain bounds, set by SetBounds immediately before each call. A
	// Program belongs to one machine and runs on one goroutine at a
	// time, so the scratch fields race with nothing.
	lim, budget, tick int64
}

// Starts reports whether a unit starts at pc. RunChain executes nothing
// anywhere else, so the driver enters the engine only where this holds.
func (cp *Program) Starts(pc int32) bool {
	return uint32(pc) < uint32(len(cp.Units)) && cp.Units[pc] != nil
}

// SetBounds stages the boundary parameters for the next RunChain call:
// lim is the last cycle at which an instruction may issue, budget the
// strict cap on the chain's total cost, tick the instruction allowance
// before RunChain yields for a cancellation poll.
func (cp *Program) SetBounds(lim, budget, tick int64) {
	cp.lim, cp.budget, cp.tick = lim, budget, tick
}

// maxTraceLen caps how many instructions a single trace may fuse. It
// bounds compile-time duplication from loop unrolling and long
// straight-line code; jump threading chains unit to unit past it.
const maxTraceLen = 64

// Compile builds the compiled engine for p. The program must already be
// validated (register indices in range, branch targets resolved); the
// machine compiles after prog.Validate for exactly that reason.
func Compile(p *prog.Program) *Program {
	cp := &Program{Units: make([]*Unit, len(p.Instrs)), Total: len(p.Instrs)}
	var work []int
	for _, run := range opt.FuseRuns(p) {
		work = append(work, run.Start)
		cp.Fused += run.Len()
	}
	// Traces rooted at run starts may complete at a fusible pc that is
	// not itself a run start (a trace truncated by the length cap falls
	// mid-run); root follow-on traces there so chains never degrade to
	// instruction-at-a-time dispatch on long straight-line code. Side
	// exits need no such seeding: branch targets are block leaders and
	// therefore run starts already.
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if cp.Units[pc] != nil {
			continue
		}
		u := compileTrace(p, pc)
		cp.Units[pc] = u
		if !u.jr {
			if f := int(u.fall); f >= 0 && f < len(p.Instrs) && opt.Fusible(p.Instrs[f]) && cp.Units[f] == nil {
				work = append(work, f)
			}
		}
	}
	return cp
}

// compileTrace grows the trace rooted at start: straight-line fusible
// instructions decode into micro-ops, conditional branches become side
// exits with the trace continuing on the fall-through path, and
// unconditional jumps are resolved at compile time (j keeps only a
// placeholder micro-op; jal keeps the link write). The trace ends at a
// non-fusible instruction, a jr, a pc it has already absorbed (a loop
// closing on a non-head pc), the program bounds, or the length cap.
func compileTrace(p *prog.Program, start int) *Unit {
	u := &Unit{Start: int32(start)}
	visited := make(map[int]bool, maxTraceLen)
	var costs []int64
	addInstr := func(pc int) {
		u.pcs = append(u.pcs, int32(pc))
		costs = append(costs, int64(p.Instrs[pc].Op.Cost()))
	}
	pc := start
	for {
		if pc < 0 || pc >= len(p.Instrs) || visited[pc] || len(u.pcs) >= maxTraceLen {
			break
		}
		in := p.Instrs[pc]
		if !opt.Fusible(in) {
			break
		}
		visited[pc] = true
		switch op := in.Op; {
		case op == isa.Jr:
			u.jr = true
			u.termRs = in.Rs & 31
			u.termPC = int32(pc)
			u.progLen = int64(len(p.Instrs))
			addInstr(pc)
			u.run = makeTrace(u.ops)
			finishTrace(u, costs)
			return u
		case op == isa.J:
			// Followed at compile time: the micro-op only keeps the
			// jump's place in the path numbering; it does no work.
			u.ops = append(u.ops, uop{op: isa.J})
			addInstr(pc)
			pc = int(in.Target)
		case op == isa.Jal:
			u.ops = append(u.ops, uop{op: isa.Jal, imm: int64(pc + 1)})
			addInstr(pc)
			pc = int(in.Target)
		case op.IsBranch():
			b := decode(in)
			if int(in.Target) == start {
				// A backedge to the trace's own head: unroll the loop.
				// The branch is emitted inverted, so its side exit is
				// the loop's original fall-through and the taken path
				// stays inside the trace, which continues with another
				// copy of the body. Per-iteration dispatch overhead
				// (unit lookup, admission, accounting) then amortizes
				// over every unrolled copy. The pcs walked repeat, so
				// the visited set restarts with the new copy.
				b.op = invertBranch(in.Op)
				b.imm = int64(pc + 1)
				u.ops = append(u.ops, b)
				addInstr(pc)
				pc = start
				visited = make(map[int]bool, maxTraceLen)
			} else {
				b.imm = int64(in.Target)
				u.ops = append(u.ops, b)
				addInstr(pc)
				pc++
			}
		default:
			u.ops = append(u.ops, decode(in))
			addInstr(pc)
			pc++
		}
	}
	u.fall = int32(pc)
	u.run = makeTrace(u.ops)
	finishTrace(u, costs)
	return u
}

// invertBranch returns the branch with the opposite condition. Branch
// pairs read the same operands, so swapping the opcode inverts the
// outcome exactly — signed comparisons are a total order.
func invertBranch(op isa.Op) isa.Op {
	switch op {
	case isa.Beq:
		return isa.Bne
	case isa.Bne:
		return isa.Beq
	case isa.Blt:
		return isa.Bge
	case isa.Bge:
		return isa.Blt
	case isa.Beqz:
		return isa.Bnez
	case isa.Bnez:
		return isa.Beqz
	}
	return op
}

// finishTrace derives the accounting metadata from the per-instruction
// costs gathered while growing the trace.
func finishTrace(u *Unit, costs []int64) {
	u.N = int64(len(costs))
	u.prefix = make([]int64, len(costs)+1)
	for i, c := range costs {
		u.prefix[i] = u.Cost
		u.Cost += c
	}
	u.prefix[len(costs)] = u.Cost
	u.PreCost = u.prefix[len(costs)-1]
}

// decode pre-decodes one straight-line instruction. Register indices
// are pre-masked to 31 — a no-op for validated programs — and shift
// amounts are reduced mod 64 exactly as the interpreter reduces them.
func decode(in isa.Instr) uop {
	v := uop{
		op: in.Op,
		rd: in.Rd & 31, rs: in.Rs & 31, rt: in.Rt & 31,
		rd1: (in.Rd + 1) & 31, rt1: (in.Rt + 1) & 31,
		imm: in.Imm,
	}
	switch in.Op {
	case isa.Slli, isa.Srli, isa.Srai:
		v.imm = int64(uint64(in.Imm) & 63)
	}
	return v
}

// makeTrace fuses a trace's micro-ops into one closure with the
// interpreter's exact semantics. The &31 masks repeat the decode-time
// masking where the compiler can see it, eliding the register-bank
// bounds checks; local memory is checked against the live slice before
// any write, exactly as the interpreter does.
func makeTrace(uops []uop) traceFn {
	ops := uops
	return func(r *[isa.NumIntRegs]int64, f *[isa.NumFPRegs]float64, local []int64) (int32, bool) {
		for i := range ops {
			op := &ops[i]
			switch op.op {
			case isa.Nop:

			// Integer ALU, register-register.
			case isa.Add:
				r[op.rd&31] = r[op.rs&31] + r[op.rt&31]
			case isa.Sub:
				r[op.rd&31] = r[op.rs&31] - r[op.rt&31]
			case isa.Mul:
				r[op.rd&31] = r[op.rs&31] * r[op.rt&31]
			case isa.Div:
				if r[op.rt&31] == 0 {
					return int32(i), true
				}
				r[op.rd&31] = r[op.rs&31] / r[op.rt&31]
			case isa.Rem:
				if r[op.rt&31] == 0 {
					return int32(i), true
				}
				r[op.rd&31] = r[op.rs&31] % r[op.rt&31]
			case isa.And:
				r[op.rd&31] = r[op.rs&31] & r[op.rt&31]
			case isa.Or:
				r[op.rd&31] = r[op.rs&31] | r[op.rt&31]
			case isa.Xor:
				r[op.rd&31] = r[op.rs&31] ^ r[op.rt&31]
			case isa.Nor:
				r[op.rd&31] = ^(r[op.rs&31] | r[op.rt&31])
			case isa.Sll:
				r[op.rd&31] = r[op.rs&31] << (uint64(r[op.rt&31]) & 63)
			case isa.Srl:
				r[op.rd&31] = int64(uint64(r[op.rs&31]) >> (uint64(r[op.rt&31]) & 63))
			case isa.Sra:
				r[op.rd&31] = r[op.rs&31] >> (uint64(r[op.rt&31]) & 63)
			case isa.Slt:
				r[op.rd&31] = b2i(r[op.rs&31] < r[op.rt&31])
			case isa.Sltu:
				r[op.rd&31] = b2i(uint64(r[op.rs&31]) < uint64(r[op.rt&31]))

			// Integer ALU, register-immediate.
			case isa.Addi:
				r[op.rd&31] = r[op.rs&31] + op.imm
			case isa.Muli:
				r[op.rd&31] = r[op.rs&31] * op.imm
			case isa.Andi:
				r[op.rd&31] = r[op.rs&31] & op.imm
			case isa.Ori:
				r[op.rd&31] = r[op.rs&31] | op.imm
			case isa.Xori:
				r[op.rd&31] = r[op.rs&31] ^ op.imm
			case isa.Slli:
				r[op.rd&31] = r[op.rs&31] << uint64(op.imm)
			case isa.Srli:
				r[op.rd&31] = int64(uint64(r[op.rs&31]) >> uint64(op.imm))
			case isa.Srai:
				r[op.rd&31] = r[op.rs&31] >> uint64(op.imm)
			case isa.Slti:
				r[op.rd&31] = b2i(r[op.rs&31] < op.imm)
			case isa.Li:
				r[op.rd&31] = op.imm
			case isa.Mov:
				r[op.rd&31] = r[op.rs&31]

			// Control flow inside the trace. Branch targets were
			// pre-decoded into imm; a taken branch is a side exit. The
			// j placeholder's jump was resolved at compile time, and
			// jal's jump likewise — only the link write remains.
			case isa.Beq:
				if r[op.rs&31] == r[op.rt&31] {
					return int32(i), false
				}
			case isa.Bne:
				if r[op.rs&31] != r[op.rt&31] {
					return int32(i), false
				}
			case isa.Blt:
				if r[op.rs&31] < r[op.rt&31] {
					return int32(i), false
				}
			case isa.Bge:
				if r[op.rs&31] >= r[op.rt&31] {
					return int32(i), false
				}
			case isa.Beqz:
				if r[op.rs&31] == 0 {
					return int32(i), false
				}
			case isa.Bnez:
				if r[op.rs&31] != 0 {
					return int32(i), false
				}
			case isa.J:

			case isa.Jal:
				r[isa.RRet] = op.imm

			// Register-bank moves and floating point.
			case isa.Fmov:
				f[op.rd&31] = f[op.rs&31]
			case isa.Mtf:
				f[op.rd&31] = prog.BitsToFloat64(r[op.rs&31])
			case isa.Mff:
				r[op.rd&31] = prog.Float64Bits(f[op.rs&31])
			case isa.Fadd:
				f[op.rd&31] = f[op.rs&31] + f[op.rt&31]
			case isa.Fsub:
				f[op.rd&31] = f[op.rs&31] - f[op.rt&31]
			case isa.Fmul:
				f[op.rd&31] = f[op.rs&31] * f[op.rt&31]
			case isa.Fdiv:
				f[op.rd&31] = f[op.rs&31] / f[op.rt&31]
			case isa.Fneg:
				f[op.rd&31] = -f[op.rs&31]
			case isa.Fabs:
				f[op.rd&31] = math.Abs(f[op.rs&31])
			case isa.Fsqrt:
				f[op.rd&31] = math.Sqrt(f[op.rs&31])
			case isa.Fmin:
				f[op.rd&31] = math.Min(f[op.rs&31], f[op.rt&31])
			case isa.Fmax:
				f[op.rd&31] = math.Max(f[op.rs&31], f[op.rt&31])
			case isa.CvtIF:
				f[op.rd&31] = float64(r[op.rs&31])
			case isa.CvtFI:
				r[op.rd&31] = int64(f[op.rs&31])
			case isa.Feq:
				r[op.rd&31] = b2i(f[op.rs&31] == f[op.rt&31])
			case isa.Flt:
				r[op.rd&31] = b2i(f[op.rs&31] < f[op.rt&31])
			case isa.Fle:
				r[op.rd&31] = b2i(f[op.rs&31] <= f[op.rt&31])

			// Thread-local memory.
			case isa.Lw:
				a := r[op.rs&31] + op.imm
				if uint64(a) >= uint64(len(local)) {
					return int32(i), true
				}
				r[op.rd&31] = local[a]
			case isa.Sw:
				a := r[op.rs&31] + op.imm
				if uint64(a) >= uint64(len(local)) {
					return int32(i), true
				}
				local[a] = r[op.rt&31]
			case isa.Ld:
				a := r[op.rs&31] + op.imm
				if a < 0 || a+1 >= int64(len(local)) {
					return int32(i), true
				}
				r[op.rd&31] = local[a]
				r[op.rd1&31] = local[a+1]
			case isa.Sd:
				a := r[op.rs&31] + op.imm
				if a < 0 || a+1 >= int64(len(local)) {
					return int32(i), true
				}
				local[a] = r[op.rt&31]
				local[a+1] = r[op.rt1&31]
			case isa.Flw:
				a := r[op.rs&31] + op.imm
				if uint64(a) >= uint64(len(local)) {
					return int32(i), true
				}
				f[op.rd&31] = prog.BitsToFloat64(local[a])
			case isa.Fsw:
				a := r[op.rs&31] + op.imm
				if uint64(a) >= uint64(len(local)) {
					return int32(i), true
				}
				local[a] = prog.Float64Bits(f[op.rt&31])
			}
		}
		return -1, false
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
