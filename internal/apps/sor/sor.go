// Package sor builds the paper's successive-over-relaxation solver for
// Laplace's equation (Table 1: 192 x 192 grid).
//
// The grid is solved with red-black SOR: within one color every update is
// independent (its four neighbours are the other color), so the parallel
// result is deterministic. Rows are distributed statically in contiguous
// bands, with a barrier after each half-sweep. The inner loop is the
// paper's Figure 4 example: five shared loads (north, south, west, east,
// center) followed by the update — exactly the back-to-back load pattern
// whose 1-2 cycle run-lengths cripple switch-on-load (§4.2) and which the
// grouping optimizer turns into one five-load group per point (§5.1).
package sor

import (
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/isa"
	"mtsim/internal/machine"
	"mtsim/internal/par"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// Params sizes the problem: an N x N interior with a fixed boundary,
// swept Iters times (each iteration updates both colors).
type Params struct {
	N     int64
	Iters int64
	Omega float64
	Seed  uint64
}

// ParamsFor returns the problem size for a scale. Full is the paper's
// 192 x 192 grid.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{N: 64, Iters: 3, Omega: 1.5, Seed: 2}
	case app.Medium:
		return Params{N: 128, Iters: 6, Omega: 1.5, Seed: 2}
	default:
		return Params{N: 192, Iters: 30, Omega: 1.5, Seed: 2}
	}
}

func (p Params) normalized() Params {
	if p.N < 4 {
		p.N = 4
	}
	if p.Iters < 1 {
		p.Iters = 1
	}
	if p.Omega == 0 {
		p.Omega = 1.5
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	n := p.N
	s := n + 2 // stride including boundary

	b := prog.NewBuilder("sor")
	grid := b.Shared("grid", s*s)
	bar := par.AllocBarrier(b, "bar")

	const rSense = 20
	b.Li(4, grid.Base)
	b.Li(5, s)
	// Static band decomposition: rows = ceil(N / nthreads).
	b.Li(14, n)
	b.Add(15, 14, isa.RNth)
	b.Addi(15, 15, -1)
	b.Div(15, 15, isa.RNth) // rows per thread
	b.Mul(6, 15, isa.RTid)
	b.Addi(6, 6, 1) // lo = 1 + tid*rows
	b.Add(7, 6, 15) // hi
	b.Li(13, n+1)
	b.Blt(7, 13, "hiok")
	b.Mov(7, 13)
	b.Label("hiok")
	b.LiF(10, p.Omega, 16)
	b.LiF(11, 0.25, 16)
	b.Li(17, bar.Base)

	b.Li(8, 0) // iteration
	b.Label("iter")
	b.Li(9, 0) // color
	b.Label("color")
	b.Mov(10, 6) // i = lo
	b.Label("row")
	b.Bge(10, 7, "rows.done")
	// j0 = 1 + ((i + 1 + color) & 1): first point of this color in row i.
	b.Add(14, 10, 9)
	b.Addi(14, 14, 1)
	b.Andi(14, 14, 1)
	b.Addi(11, 14, 1)
	b.Mul(12, 10, 5)
	b.Add(12, 12, 4) // row base address
	b.Label("pt")
	b.Bge(11, 13, "row.done")
	b.Add(14, 12, 11)
	// The Figure 4 inner loop: five shared loads, then the update.
	b.FlwS(1, 14, -s) // north
	b.FlwS(2, 14, s)  // south
	b.FlwS(3, 14, -1) // west
	b.FlwS(4, 14, 1)  // east
	b.FlwS(5, 14, 0)  // center
	b.Fadd(1, 1, 2)
	b.Fadd(3, 3, 4)
	b.Fadd(1, 1, 3)
	b.Fmul(1, 1, 11) // avg = 0.25 * (n+s+w+e)
	b.Fsub(1, 1, 5)
	b.Fmul(1, 1, 10) // omega * (avg - u)
	b.Fadd(1, 5, 1)
	b.FswS(1, 14, 0)
	b.Addi(11, 11, 2)
	b.J("pt")
	b.Label("row.done")
	b.Addi(10, 10, 1)
	b.J("row")
	b.Label("rows.done")
	par.Barrier(b, 17, 0, rSense, 14, 15)
	b.Addi(9, 9, 1)
	b.Slti(14, 9, 2)
	b.Bnez(14, "color")
	b.Addi(8, 8, 1)
	b.Slti(14, 8, p.Iters)
	b.Bnez(14, "iter")
	b.Halt()
	raw := b.MustBuild()

	// Host-side initial grid and reference sweep, mirroring the kernel's
	// float operation order exactly.
	initGrid := make([]float64, s*s)
	r := rng.New(p.Seed)
	for i := int64(0); i < s; i++ {
		for j := int64(0); j < s; j++ {
			if i == 0 || j == 0 || i == s-1 || j == s-1 {
				initGrid[i*s+j] = r.Range(0, 100) // fixed boundary
			}
		}
	}
	want := make([]float64, s*s)
	copy(want, initGrid)
	for it := int64(0); it < p.Iters; it++ {
		for color := int64(0); color < 2; color++ {
			for i := int64(1); i <= n; i++ {
				for j := 1 + ((i + 1 + color) & 1); j <= n; j += 2 {
					c := want[i*s+j]
					avg := ((want[(i-1)*s+j] + want[(i+1)*s+j]) + (want[i*s+j-1] + want[i*s+j+1])) * 0.25
					want[i*s+j] = c + (avg-c)*p.Omega
				}
			}
		}
	}

	return &app.App{
		Name:        "sor",
		Description: "S.O.R. solver for Laplace's equation",
		Problem:     fmt.Sprintf("%d x %d grid, %d iterations", n, n, p.Iters),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i < s*s; i++ {
				sh.SetFloatAt("grid", i, initGrid[i])
			}
		}),
		Check: func(sh *machine.Shared) error {
			for i := int64(0); i < s*s; i++ {
				if got := sh.FloatAt("grid", i); got != want[i] {
					return fmt.Errorf("sor: grid[%d] = %g, want %g", i, got, want[i])
				}
			}
			return nil
		},
	}
}
