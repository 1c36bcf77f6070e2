// Package mp3d builds a stand-in for the SPLASH MP3D rarefied-flow
// particle simulator (Table 1: 100,000 particles, 10 iterations).
//
// Substitution (see DESIGN.md §2): the original moves particles through a
// space-cell array each step, with essentially no reference locality —
// the property that makes mp3d the paper's hard case (§6.1: "very poor
// reference locality and thus benefits little from caching"). Our kernel
// keeps that character: each thread owns a block of particles; per step
// it loads a particle's six coordinates, advances the position, hashes
// the position to a space cell (scattered across a large cell array),
// bumps the cell's population counter with Fetch-and-Add, reads the
// cell's static property, applies a property-dependent collision to the
// velocity, and stores the particle back. With randomly placed particles
// the 3D-grid cell lookups are scattered, so a cache mostly fetches
// lines it never reuses — unless the particles are laid out in cell
// order (Params.SortParticles, the paper's suggested rewrite).
package mp3d

import (
	"fmt"
	"sort"

	"mtsim/internal/app"
	"mtsim/internal/isa"
	"mtsim/internal/machine"
	"mtsim/internal/par"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// partCells is the padded particle record size: x y z vx vy vz pad pad.
const partCells = 8

// cellCells is the space-cell record: population counter, property.
const cellCells = 2

// Params sizes the problem.
type Params struct {
	Particles int64
	Steps     int64
	// Cells is the space-cell count (rounded up to a power of two).
	Cells int64
	Dt    float64
	Seed  uint64
	// SortParticles lays particles out in space-cell order, so each
	// thread's block of particles touches a clustered set of space
	// cells — the locality rewrite the paper wishes for (§6.1: "We
	// would be interested in seeing if this application could be
	// rewritten to improve its locality").
	SortParticles bool
}

// ParamsFor returns the problem size for a scale. Full is the paper's
// 100,000 particles, 10 steps.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{Particles: 3000, Steps: 2, Cells: 2048, Dt: 0.01, Seed: 6}
	case app.Medium:
		return Params{Particles: 12000, Steps: 4, Cells: 8192, Dt: 0.01, Seed: 6}
	default:
		return Params{Particles: 100000, Steps: 10, Cells: 65536, Dt: 0.01, Seed: 6}
	}
}

// sortByCell orders the particle records by the space cell of their
// first move (stable sort by cell key; deterministic).
func sortByCell(px []float64, n int64, dt, scale float64, mask int64) {
	key := func(i int64) int64 {
		x := px[i*6+0] + px[i*6+3]*dt
		y := px[i*6+1] + px[i*6+4]*dt
		z := px[i*6+2] + px[i*6+5]*dt
		return (int64(x*scale) + int64(y*scale)<<5 + int64(z*scale)<<10) & mask
	}
	type rec struct {
		k int64
		v [6]float64
	}
	recs := make([]rec, n)
	for i := int64(0); i < n; i++ {
		recs[i].k = key(i)
		copy(recs[i].v[:], px[i*6:i*6+6])
	}
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].k < recs[b].k })
	for i := int64(0); i < n; i++ {
		copy(px[i*6:i*6+6], recs[i].v[:])
	}
}

func (p Params) normalized() Params {
	if p.Particles < 8 {
		p.Particles = 8
	}
	if p.Steps < 1 {
		p.Steps = 1
	}
	if p.Cells < 16 {
		p.Cells = 16
	}
	for c := int64(1); ; c <<= 1 {
		if c >= p.Cells {
			p.Cells = c
			break
		}
	}
	if p.Dt == 0 {
		p.Dt = 0.01
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	n := p.Particles
	mask := p.Cells - 1
	const scale = 64.0 // position-to-cell hash scale

	b := prog.NewBuilder("mp3d")
	part := b.Shared("part", n*partCells)
	cells := b.Shared("cells", p.Cells*cellCells)
	bar := par.AllocBarrier(b, "bar")

	const rSense = 20
	// r4 part base, r5 cells base, r7 lo, r8 hi, r9 i, r12 particle
	// address, r14/r15 scratch, r16 cell address, r17 bar base, r18
	// step, r21 one, r22 mask.
	// f1..f6 x y z vx vy vz, f10 dt, f11 hash scale, f12 collision
	// threshold, f14/f15 scratch.
	b.Li(4, part.Base)
	b.Li(5, cells.Base)
	b.Li(17, bar.Base)
	b.Li(21, 1)
	b.Li(22, mask)
	b.LiF(10, p.Dt, 14)
	b.LiF(11, scale, 14)
	b.LiF(12, 0.5, 14)
	// Static block decomposition.
	b.Li(14, n)
	b.Add(14, 14, isa.RNth)
	b.Addi(14, 14, -1)
	b.Div(14, 14, isa.RNth)
	b.Mul(7, 14, isa.RTid)
	b.Add(8, 7, 14)
	b.Li(15, n)
	b.Blt(8, 15, "hiok")
	b.Mov(8, 15)
	b.Label("hiok")

	b.Li(18, 0)
	b.Label("step")
	b.Mov(9, 7)
	b.Label("move")
	b.Bge(9, 8, "move.done")
	b.Slli(12, 9, 3)
	b.Add(12, 12, 4)
	// Load the particle (positions and velocities in two line-sized
	// halves of the record).
	b.FlwS(1, 12, 0)
	b.FlwS(2, 12, 1)
	b.FlwS(3, 12, 2)
	b.FlwS(4, 12, 3)
	b.FlwS(5, 12, 4)
	b.FlwS(6, 12, 5)
	// Advance: pos += vel * dt.
	b.Fmul(14, 4, 10)
	b.Fadd(1, 1, 14)
	b.Fmul(14, 5, 10)
	b.Fadd(2, 2, 14)
	b.Fmul(14, 6, 10)
	b.Fadd(3, 3, 14)
	// Spatial cell index (3D grid, as in the original):
	// cell = (ix + (iy << 5) + (iz << 10)) & mask.
	b.Fmul(14, 1, 11)
	b.CvtFI(14, 14)
	b.Fmul(15, 2, 11)
	b.CvtFI(15, 15)
	b.Slli(15, 15, 5)
	b.Add(14, 14, 15)
	b.Fmul(15, 3, 11)
	b.CvtFI(15, 15)
	b.Slli(15, 15, 10)
	b.Add(14, 14, 15)
	b.And(14, 14, 22)
	b.Slli(16, 14, 1)
	b.Add(16, 16, 5) // &cells[cell]
	// Population count and property lookup: the scattered accesses.
	b.Faa(15, 16, 0, 21)
	b.FlwS(14, 16, 1) // property
	// Collision: if the cell property >= 0.5, scatter the velocity off
	// a partner cell's property (a second scattered lookup, like the
	// original's collision-partner selection).
	b.Flt(15, 14, 12)
	b.Bnez(15, "nocollide")
	b.Muli(15, 14, 40503) // integer r14 still holds the cell index
	b.Addi(15, 15, 7)
	b.And(15, 15, 22)
	b.Slli(15, 15, 1)
	b.Add(15, 15, 5)
	b.FlwS(14, 15, 1) // partner property
	b.Fneg(15, 14)
	b.Fmul(4, 4, 15)
	b.Fmul(5, 5, 14)
	b.Fmul(6, 6, 15)
	b.Label("nocollide")
	// Store the particle back.
	b.FswS(1, 12, 0)
	b.FswS(2, 12, 1)
	b.FswS(3, 12, 2)
	b.FswS(4, 12, 3)
	b.FswS(5, 12, 4)
	b.FswS(6, 12, 5)
	b.Addi(9, 9, 1)
	b.J("move")
	b.Label("move.done")
	par.Barrier(b, 17, 0, rSense, 14, 15)
	b.Addi(18, 18, 1)
	b.Slti(14, 18, p.Steps)
	b.Bnez(14, "step")
	b.Halt()
	raw := b.MustBuild()

	// Workload and exact-order reference.
	px := make([]float64, n*6)
	props := make([]float64, p.Cells)
	r := rng.New(p.Seed)
	for i := int64(0); i < n; i++ {
		px[i*6+0] = r.Range(0, 8)
		px[i*6+1] = r.Range(0, 8)
		px[i*6+2] = r.Range(0, 8)
		px[i*6+3] = r.Range(-2, 2)
		px[i*6+4] = r.Range(-2, 2)
		px[i*6+5] = r.Range(-2, 2)
	}
	for i := range props {
		props[i] = r.Float()
	}
	if p.SortParticles {
		// The locality rewrite: order particles by the space cell their
		// first step will touch, so a thread's contiguous particle
		// block hits a clustered set of cells.
		sortByCell(px, n, p.Dt, scale, mask)
	}
	want := append([]float64(nil), px...)
	wantCnt := make([]int64, p.Cells)
	for step := int64(0); step < p.Steps; step++ {
		for i := int64(0); i < n; i++ {
			s := want[i*6:]
			s[0] += s[3] * p.Dt
			s[1] += s[4] * p.Dt
			s[2] += s[5] * p.Dt
			ix := int64(s[0] * scale)
			iy := int64(s[1] * scale)
			iz := int64(s[2] * scale)
			cell := (ix + iy<<5 + iz<<10) & mask
			wantCnt[cell]++
			prop := props[cell]
			if !(prop < 0.5) {
				partner := (cell*40503 + 7) & mask
				p2 := props[partner]
				s[3] *= -p2
				s[4] *= p2
				s[5] *= -p2
			}
		}
	}

	name := "mp3d"
	if p.SortParticles {
		name = "mp3d-sorted"
	}
	return &app.App{
		Name:        name,
		Description: "rarefied hypersonic flow particle simulator (kernel substitute)",
		Problem:     fmt.Sprintf("%d particles, %d steps, %d space cells", n, p.Steps, p.Cells),
		Raw:         raw,
		TableProcs:  32,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i < n; i++ {
				for d := int64(0); d < 6; d++ {
					sh.SetFloatAt("part", i*partCells+d, px[i*6+d])
				}
			}
			for i := int64(0); i < p.Cells; i++ {
				sh.SetFloatAt("cells", i*cellCells+1, props[i])
			}
		}),
		Check: func(sh *machine.Shared) error {
			for i := int64(0); i < n; i++ {
				for d := int64(0); d < 6; d++ {
					if got := sh.FloatAt("part", i*partCells+d); got != want[i*6+d] {
						return fmt.Errorf("mp3d: particle %d field %d = %g, want %g", i, d, got, want[i*6+d])
					}
				}
			}
			for c := int64(0); c < p.Cells; c++ {
				if got := sh.WordAt("cells", c*cellCells); got != wantCnt[c] {
					return fmt.Errorf("mp3d: cell %d count = %d, want %d", c, got, wantCnt[c])
				}
			}
			return nil
		},
	}
}
