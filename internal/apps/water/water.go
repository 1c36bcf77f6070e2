// Package water builds a stand-in for the SPLASH water molecular-dynamics
// code (Table 1: 343 molecules, 2 iterations).
//
// Substitution (see DESIGN.md §2): the original computes O(n^2/2)
// pairwise intermolecular forces with a static distribution of molecules
// over threads, which is why the paper's Figure 2 shows water's
// efficiency jumping when the thread count divides 343 evenly. Our kernel
// keeps exactly that structure: each thread owns a contiguous block of
// molecules; each force step evaluates a cutoff-tested inverse-square
// interaction against the n/2 following molecules (wrapping), with the
// cutoff branch providing the paper's "large variations in run-lengths";
// a barrier separates the force and position-update phases of each of the
// two iterations.
package water

import (
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/isa"
	"mtsim/internal/machine"
	"mtsim/internal/par"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// molCells is the padded molecule record size (x, y, z, pad) so records
// align with memory lines.
const molCells = 4

// Params sizes the problem.
type Params struct {
	Molecules int64
	Iters     int64
	// Cutoff2 is the squared interaction cutoff radius.
	Cutoff2 float64
	Dt      float64
	Seed    uint64
}

// ParamsFor returns the problem size for a scale. Full is the paper's
// 343 molecules, 2 iterations (the paper says 345 in Table 1 and 343 in
// the text; 343 = 7^3 matches the load-balancing discussion).
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{Molecules: 98, Iters: 2, Cutoff2: 45, Dt: 0.004, Seed: 4}
	case app.Medium:
		return Params{Molecules: 245, Iters: 2, Cutoff2: 45, Dt: 0.004, Seed: 4}
	default:
		return Params{Molecules: 343, Iters: 2, Cutoff2: 45, Dt: 0.004, Seed: 4}
	}
}

func (p Params) normalized() Params {
	if p.Molecules < 4 {
		p.Molecules = 4
	}
	if p.Iters < 1 {
		p.Iters = 1
	}
	if p.Cutoff2 <= 0 {
		p.Cutoff2 = 45
	}
	if p.Dt == 0 {
		p.Dt = 0.004
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	n := p.Molecules
	halfn := n / 2

	b := prog.NewBuilder("water")
	pos := b.Shared("pos", n*molCells)
	vel := b.Shared("vel", n*molCells)
	frc := b.Shared("frc", n*molCells)
	bar := par.AllocBarrier(b, "bar")

	const rSense = 20
	// r4 pos base, r5 vel base, r6 frc base, r7 lo, r8 hi, r9 i, r10 k,
	// r11 j, r12 addr, r13 n, r14/r15 scratch, r16 n/2, r17 bar base,
	// r18 iter.
	// f1..f3 xi yi zi, f4..f6 dx dy dz, f7..f9 force accum, f10 rc2,
	// f11 dt, f12 eps, f13 1.0, f14/f15 scratch.
	b.Li(4, pos.Base)
	b.Li(5, vel.Base)
	b.Li(6, frc.Base)
	b.Li(13, n)
	b.Li(16, halfn)
	b.Li(17, bar.Base)
	b.LiF(10, p.Cutoff2, 14)
	b.LiF(11, p.Dt, 14)
	b.LiF(12, 0.03125, 14) // softening epsilon
	b.LiF(13, 1.0, 14)
	// Static block decomposition: chunk = ceil(n / nthreads).
	b.Li(14, n)
	b.Add(14, 14, isa.RNth)
	b.Addi(14, 14, -1)
	b.Div(14, 14, isa.RNth)
	b.Mul(7, 14, isa.RTid) // lo
	b.Add(8, 7, 14)        // hi
	b.Blt(8, 13, "hiok")
	b.Mov(8, 13)
	b.Label("hiok")

	b.Li(18, 0)
	b.Label("iter")

	// Force phase.
	b.Mov(9, 7)
	b.Label("force.i")
	b.Bge(9, 8, "force.done")
	b.Slli(12, 9, 2)
	b.Add(12, 12, 4)
	b.FlwS(1, 12, 0) // xi
	b.FlwS(2, 12, 1) // yi
	b.FlwS(3, 12, 2) // zi
	b.LiF(7, 0.0, 14)
	b.Fmov(8, 7)
	b.Fmov(9, 7)
	b.Li(10, 1)
	b.Label("force.k")
	b.Add(11, 9, 10) // j = i + k
	b.Blt(11, 13, "nowrap")
	b.Sub(11, 11, 13)
	b.Label("nowrap")
	b.Slli(12, 11, 2)
	b.Add(12, 12, 4)
	b.FlwS(4, 12, 0)
	b.FlwS(5, 12, 1)
	b.FlwS(6, 12, 2)
	b.Fsub(4, 1, 4) // dx
	b.Fsub(5, 2, 5) // dy
	b.Fsub(6, 3, 6) // dz
	b.Fmul(14, 4, 4)
	b.Fmul(15, 5, 5)
	b.Fadd(14, 14, 15)
	b.Fmul(15, 6, 6)
	b.Fadd(14, 14, 15) // r^2
	b.Flt(14, 10, 14)  // rc2 < r2 -> outside cutoff
	b.Bnez(14, "force.skip")
	b.Fadd(15, 14, 12) // r2 + eps (f14 still holds r2; Flt wrote integer r14)
	b.Fdiv(15, 13, 15) // w = 1 / (r2 + eps)
	b.Fmul(4, 4, 15)
	b.Fadd(7, 7, 4)
	b.Fmul(5, 5, 15)
	b.Fadd(8, 8, 5)
	b.Fmul(6, 6, 15)
	b.Fadd(9, 9, 6)
	b.Label("force.skip")
	b.Addi(10, 10, 1)
	b.Bge(16, 10, "force.k") // while k <= n/2
	b.Slli(12, 9, 2)
	b.Add(12, 12, 6)
	b.FswS(7, 12, 0)
	b.FswS(8, 12, 1)
	b.FswS(9, 12, 2)
	b.Addi(9, 9, 1)
	b.J("force.i")
	b.Label("force.done")
	par.Barrier(b, 17, 0, rSense, 14, 15)

	// Update phase: vel += frc*dt; pos += vel*dt.
	b.Mov(9, 7)
	b.Label("upd.i")
	b.Bge(9, 8, "upd.done")
	b.Slli(12, 9, 2)
	b.Add(14, 12, 6)
	b.FlwS(1, 14, 0)
	b.FlwS(2, 14, 1)
	b.FlwS(3, 14, 2)
	b.Add(14, 12, 5)
	b.FlwS(4, 14, 0)
	b.FlwS(5, 14, 1)
	b.FlwS(6, 14, 2)
	b.Fmul(1, 1, 11)
	b.Fadd(4, 4, 1)
	b.Fmul(2, 2, 11)
	b.Fadd(5, 5, 2)
	b.Fmul(3, 3, 11)
	b.Fadd(6, 6, 3)
	b.FswS(4, 14, 0)
	b.FswS(5, 14, 1)
	b.FswS(6, 14, 2)
	b.Add(14, 12, 4)
	b.FlwS(1, 14, 0)
	b.FlwS(2, 14, 1)
	b.FlwS(3, 14, 2)
	b.Fmul(7, 4, 11)
	b.Fadd(1, 1, 7)
	b.Fmul(7, 5, 11)
	b.Fadd(2, 2, 7)
	b.Fmul(7, 6, 11)
	b.Fadd(3, 3, 7)
	b.FswS(1, 14, 0)
	b.FswS(2, 14, 1)
	b.FswS(3, 14, 2)
	b.Addi(9, 9, 1)
	b.J("upd.i")
	b.Label("upd.done")
	par.Barrier(b, 17, 0, rSense, 14, 15)

	b.Addi(18, 18, 1)
	b.Slti(14, 18, p.Iters)
	b.Bnez(14, "iter")
	b.Halt()
	raw := b.MustBuild()

	// Host-side initial state and exact-order reference.
	px := make([]float64, n*3)
	pv := make([]float64, n*3)
	r := rng.New(p.Seed)
	for i := int64(0); i < n; i++ {
		for d := 0; d < 3; d++ {
			px[i*3+int64(d)] = r.Range(0, 12)
			pv[i*3+int64(d)] = r.Range(-0.5, 0.5)
		}
	}
	wpos := append([]float64(nil), px...)
	wvel := append([]float64(nil), pv...)
	wfrc := make([]float64, n*3)
	for it := int64(0); it < p.Iters; it++ {
		for i := int64(0); i < n; i++ {
			var fx, fy, fz float64
			xi, yi, zi := wpos[i*3], wpos[i*3+1], wpos[i*3+2]
			for k := int64(1); k <= halfn; k++ {
				j := i + k
				if j >= n {
					j -= n
				}
				dx := xi - wpos[j*3]
				dy := yi - wpos[j*3+1]
				dz := zi - wpos[j*3+2]
				r2 := dx*dx + dy*dy
				r2 += dz * dz
				if p.Cutoff2 < r2 {
					continue
				}
				w := 1.0 / (r2 + 0.03125)
				fx += dx * w
				fy += dy * w
				fz += dz * w
			}
			wfrc[i*3], wfrc[i*3+1], wfrc[i*3+2] = fx, fy, fz
		}
		for i := int64(0); i < n*3; i++ {
			wvel[i] += wfrc[i] * p.Dt
			wpos[i] += wvel[i] * p.Dt
		}
	}

	return &app.App{
		Name:        "water",
		Description: "molecular dynamics of a water-like system (kernel substitute)",
		Problem:     fmt.Sprintf("%d molecules, %d iterations", n, p.Iters),
		Raw:         raw,
		TableProcs:  49,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i < n; i++ {
				for d := int64(0); d < 3; d++ {
					sh.SetFloatAt("pos", i*molCells+d, px[i*3+d])
					sh.SetFloatAt("vel", i*molCells+d, pv[i*3+d])
				}
			}
		}),
		Check: func(sh *machine.Shared) error {
			for i := int64(0); i < n; i++ {
				for d := int64(0); d < 3; d++ {
					if got := sh.FloatAt("pos", i*molCells+d); got != wpos[i*3+d] {
						return fmt.Errorf("water: pos[%d][%d] = %g, want %g", i, d, got, wpos[i*3+d])
					}
					if got := sh.FloatAt("vel", i*molCells+d); got != wvel[i*3+d] {
						return fmt.Errorf("water: vel[%d][%d] = %g, want %g", i, d, got, wvel[i*3+d])
					}
				}
			}
			return nil
		},
	}
}
