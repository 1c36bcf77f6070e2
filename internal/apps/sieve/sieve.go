// Package sieve builds the paper's sieve benchmark: count the primes
// below N (Table 1: primes < 4,000,000).
//
// The parallelization is a segmented sieve, matching the paper's
// description of the program's behaviour (§4.1: "it runs through a large
// array marking numbers as non-prime at a constant rate" and has a fairly
// constant run-length distribution): each thread first computes the
// primes below sqrt(N) privately in local memory (cheap, duplicated,
// no shared traffic), then self-schedules segments of the shared flag
// array with Fetch-and-Add. A segment's owner marks composites with
// shared stores (which never context switch) and immediately counts the
// survivors with paired Load-Double reads, accumulating into a global
// counter with Fetch-and-Add. Segments are independent, so the program
// scales until the segments run out and the result is deterministic
// under any interleaving.
package sieve

import (
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/machine"
	"mtsim/internal/par"
	"mtsim/internal/prog"
)

// Params sizes the problem.
type Params struct {
	// N: count primes below N. Rounded up to even.
	N int64
	// Chunk is the segment size in cells (even).
	Chunk int64
}

// ParamsFor returns the problem size for a scale. Full is the paper's
// 4,000,000.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{N: 60000, Chunk: 64}
	case app.Medium:
		return Params{N: 500000, Chunk: 128}
	default:
		return Params{N: 4000000, Chunk: 256}
	}
}

func (p Params) normalized() Params {
	if p.N < 64 {
		p.N = 64
	}
	if p.N%2 == 1 {
		p.N++
	}
	if p.Chunk < 2 {
		p.Chunk = 2
	}
	if p.Chunk%2 == 1 {
		p.Chunk++
	}
	return p
}

func isqrt(n int64) int64 {
	var r int64
	for r*r <= n {
		r++
	}
	return r - 1
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	limit := isqrt(p.N) + 1 // candidates are 2..limit-1

	b := prog.NewBuilder("sieve")
	flags := b.Shared("flags", p.N)
	sctr := b.Shared("sctr", 1)
	count := b.Shared("count", 1)
	lflags := b.Local("lflags", limit)
	lprimes := b.Local("lprimes", limit)
	_ = par.BarrierCells // segments are independent; no barrier needed

	// Registers: r4 flags base, r5 N, r6 local prime count, r7 segment
	// start, r8 pointer, r9 multiple, r10 constant 1 / scratch, r11
	// segment end, r12 survivor count, r13/r14/r15 scratch, r16 prime
	// index, r17 prime value.
	b.Li(4, flags.Base)
	b.Li(5, p.N)

	// Phase A (thread-private): sieve 2..limit-1 in local memory and
	// collect the primes.
	b.Li(10, 1)
	b.Li(13, 2) // candidate
	b.Li(14, limit)
	b.Label("lsieve")
	b.Bge(13, 14, "lsieve.done")
	b.Lw(15, 13, lflags.Base)
	b.Bnez(15, "lsieve.next")
	b.Mul(9, 13, 13)
	b.Label("lmark")
	b.Bge(9, 14, "lmark.done")
	b.Sw(10, 9, lflags.Base)
	b.Add(9, 9, 13)
	b.J("lmark")
	b.Label("lmark.done")
	b.Label("lsieve.next")
	b.Addi(13, 13, 1)
	b.J("lsieve")
	b.Label("lsieve.done")
	// Collect primes into lprimes[0..r6).
	b.Li(6, 0)
	b.Li(13, 2)
	b.Label("collect")
	b.Bge(13, 14, "collect.done")
	b.Lw(15, 13, lflags.Base)
	b.Bnez(15, "collect.next")
	b.Sw(13, 6, lprimes.Base)
	b.Addi(6, 6, 1)
	b.Label("collect.next")
	b.Addi(13, 13, 1)
	b.J("collect")
	b.Label("collect.done")

	// Phase B: self-scheduled segments [s, e) of the shared flag array.
	b.Label("seg")
	b.Li(8, sctr.Base)
	par.SelfSchedule(b, 8, 0, p.Chunk, 7, 10)
	b.Bge(7, 5, "seg.done")
	b.Addi(11, 7, p.Chunk)
	b.Blt(11, 5, "eok")
	b.Mov(11, 5)
	b.Label("eok")

	// Mark multiples of each private prime within [s, e).
	b.Li(16, 0)
	b.Li(10, 1)
	b.Label("mark.p")
	b.Bge(16, 6, "mark.done")
	b.Lw(17, 16, lprimes.Base) // p
	// m = max(p*p, ceil(s/p)*p)
	b.Mul(9, 17, 17)
	b.Bge(9, 7, "mfound")
	b.Add(13, 7, 17)
	b.Addi(13, 13, -1)
	b.Div(13, 13, 17)
	b.Mul(9, 13, 17)
	b.Label("mfound")
	b.Add(8, 4, 9)
	b.Label("mark.m")
	b.Bge(9, 11, "mark.next")
	b.SwS(10, 8, 0) // flags[m] = 1
	b.Add(9, 9, 17)
	b.Add(8, 8, 17)
	b.J("mark.m")
	b.Label("mark.next")
	b.Addi(16, 16, 1)
	b.J("mark.p")
	b.Label("mark.done")

	// Count the survivors of this segment with paired loads.
	b.Li(12, 0)
	b.Add(8, 4, 7)
	b.Mov(13, 7)
	b.Label("cnt")
	b.Bge(13, 11, "cnt.done")
	b.LdS(14, 8, 0) // flags[i], flags[i+1] in one message
	b.Xori(14, 14, 1)
	b.Xori(15, 15, 1)
	b.Add(12, 12, 14)
	b.Add(12, 12, 15)
	b.Addi(8, 8, 2)
	b.Addi(13, 13, 2)
	b.J("cnt")
	b.Label("cnt.done")
	b.Li(8, count.Base)
	b.Faa(14, 8, 0, 12)
	b.J("seg")
	b.Label("seg.done")
	b.Halt()

	raw := b.MustBuild()
	want := hostSieve(p.N)

	return &app.App{
		Name:        "sieve",
		Description: "counts primes < N",
		Problem:     fmt.Sprintf("primes < %d", p.N),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			sh.SetWordAt("flags", 0, 1)
			sh.SetWordAt("flags", 1, 1)
		}),
		Check: func(sh *machine.Shared) error {
			if got := sh.WordAt("count", 0); got != want {
				return fmt.Errorf("sieve: counted %d primes below %d, want %d", got, p.N, want)
			}
			return nil
		},
	}
}

// hostSieve is the reference implementation.
func hostSieve(n int64) int64 {
	comp := make([]bool, n)
	for p := int64(2); p*p < n; p++ {
		if comp[p] {
			continue
		}
		for m := p * p; m < n; m += p {
			comp[m] = true
		}
	}
	var c int64
	for i := int64(2); i < n; i++ {
		if !comp[i] {
			c++
		}
	}
	return c
}
