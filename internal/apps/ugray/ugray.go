// Package ugray builds a stand-in for the paper's ugray ray-tracing
// renderer (Table 1: gears scene, 7169 faces).
//
// Substitution (see DESIGN.md §2): the original walks spatial-subdivision
// cells and tests rays against linked lists of polygon faces, loading a
// few fields of each face structure between conditional bounding-box
// tests. Our kernel reproduces exactly that access character: rays are
// self-scheduled with Fetch-and-Add; each ray probes a fixed sequence of
// grid cells; each cell holds a linked list of 8-cell face records
// ([x0 x1 y0 y1 nx ny d next]); the bounding-box tests interleave one
// shared load with one branch each, so basic blocks contain a single
// shared load and intra-block grouping barely helps (the paper measured a
// 1.3 grouping factor) — while all eight fields share one 16-cell memory
// line, so the §5.2 inter-block window finds the grouping a smarter
// compiler would (the paper measured 42% window hits, lifting grouping to
// 1.9).
package ugray

import (
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/machine"
	"mtsim/internal/par"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// Face record layout (8 cells, aligned so a record never straddles a
// 16-cell window line).
const (
	fX0 = iota
	fX1
	fY0
	fY1
	fNx
	fNy
	fD
	fNext
	faceCells
)

// Params sizes the problem.
type Params struct {
	// Rays is the number of rays traced.
	Rays int64
	// Cells is the number of grid cells (rounded up to a power of two).
	Cells int64
	// FacesPerCell is the mean face-list length.
	FacesPerCell int64
	// Steps is the number of cells each ray probes.
	Steps int64
	Seed  uint64
}

// ParamsFor returns the problem size for a scale. Full approximates the
// paper's 7169-face scene and 20x512 image slice.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{Rays: 384, Cells: 128, FacesPerCell: 4, Steps: 6, Seed: 3}
	case app.Medium:
		return Params{Rays: 2048, Cells: 512, FacesPerCell: 4, Steps: 8, Seed: 3}
	default:
		return Params{Rays: 10240, Cells: 2048, FacesPerCell: 4, Steps: 8, Seed: 3}
	}
}

func (p Params) normalized() Params {
	if p.Rays < 1 {
		p.Rays = 1
	}
	if p.Cells < 2 {
		p.Cells = 2
	}
	for c := int64(1); ; c <<= 1 {
		if c >= p.Cells {
			p.Cells = c
			break
		}
	}
	if p.FacesPerCell < 1 {
		p.FacesPerCell = 1
	}
	if p.Steps < 1 {
		p.Steps = 1
	}
	return p
}

// rayTile is the image-space tile size: consecutive rays in a tile probe
// the same cell sequence (spatial coherence, as in a real renderer) and
// are claimed together by one thread, so a processor reuses the scene
// data it just fetched.
const rayTile = 8

// cellWalk returns the cell a ray probes at a step: a fixed pseudo-random
// walk, shared by all rays of a tile, that both the kernel and the host
// mirror compute identically.
func cellWalk(ray, step, mask int64) int64 {
	return ((ray/rayTile)*40503 + step*9973) & mask
}

// rayCoords derives a ray's (x, y) probe point.
func rayCoords(ray int64) (float64, float64) {
	rx := float64((ray*13+7)&255) * 0.125
	ry := float64((ray*29+3)&255) * 0.125
	return rx, ry
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	nf := p.Cells * p.FacesPerCell
	mask := p.Cells - 1
	const noHit = -1

	b := prog.NewBuilder("ugray")
	faces := b.Shared("faces", nf*faceCells)
	heads := b.Shared("heads", p.Cells)
	out := b.Shared("out", p.Rays*2)
	rctr := b.Shared("rctr", 1)
	_ = par.LockCells // ugray needs no locks; rays are independent

	// Registers: r4 faces base, r5 heads base, r6 ray, r7 step, r8 cell,
	// r9 face index, r10 face record address, r11 best face id,
	// r14/r15/r16 scratch, r18 out base, r19 mask.
	// Floats: f10 rx, f11 ry, f12 tmin, f13 0.0, f1..f4 scratch.
	b.Li(4, faces.Base)
	b.Li(5, heads.Base)
	b.Li(18, out.Base)
	b.Li(19, mask)
	b.LiF(13, 0.0, 14)

	// Claim rays a tile at a time: r20 is the tile end.
	b.Label("tile")
	b.Li(14, rctr.Base)
	b.Li(15, rayTile)
	b.Faa(6, 14, 0, 15) // ray = tile start
	b.Li(14, p.Rays)
	b.Bge(6, 14, "done")
	b.Addi(20, 6, rayTile)
	b.Blt(20, 14, "tileok")
	b.Mov(20, 14)
	b.Label("tileok")

	b.Label("ray")
	// rx = float((ray*13+7) & 255) * 0.125, ry likewise.
	b.Muli(14, 6, 13)
	b.Addi(14, 14, 7)
	b.Andi(14, 14, 255)
	b.CvtIF(10, 14)
	b.LiF(1, 0.125, 15)
	b.Fmul(10, 10, 1)
	b.Muli(14, 6, 29)
	b.Addi(14, 14, 3)
	b.Andi(14, 14, 255)
	b.CvtIF(11, 14)
	b.Fmul(11, 11, 1)
	b.LiF(12, 1e30, 15) // tmin
	b.Li(11, noHit)     // best face id
	b.Li(7, 0)          // step

	b.Label("step")
	// cell = ((ray/tile)*40503 + step*9973) & mask
	b.Srli(14, 6, 3) // rayTile == 8
	b.Muli(14, 14, 40503)
	b.Muli(15, 7, 9973)
	b.Add(14, 14, 15)
	b.And(8, 14, 19)
	b.Add(14, 5, 8)
	b.LwS(9, 14, 0) // face = heads[cell]

	b.Label("face")
	b.Li(14, noHit)
	b.Beq(9, 14, "step.next")
	b.Muli(10, 9, faceCells)
	b.Add(10, 10, 4) // face record address
	// Bounding-box tests: one load, one branch each — the cross-block
	// pattern that defeats intra-block grouping.
	b.FlwS(1, 10, fX0)
	b.Flt(14, 10+0, 1) // rx < x0 ?  (f10 is rx)
	b.Bnez(14, "face.reject")
	b.FlwS(1, 10, fX1)
	b.Flt(14, 1, 10) // x1 < rx ?
	b.Bnez(14, "face.reject")
	b.FlwS(1, 10, fY0)
	b.Flt(14, 11, 1) // ry < y0 ?  -- careful: r11 is the best id; f11 is ry
	b.Bnez(14, "face.reject")
	b.FlwS(1, 10, fY1)
	b.Flt(14, 1, 11) // y1 < ry ?
	b.Bnez(14, "face.reject")
	// Accepted: plane evaluation t = nx*rx + ny*ry + d.
	b.FlwS(2, 10, fNx)
	b.FlwS(3, 10, fNy)
	b.FlwS(4, 10, fD)
	b.Fmul(2, 2, 10)
	b.Fmul(3, 3, 11)
	b.Fadd(2, 2, 3)
	b.Fadd(2, 2, 4)
	b.Flt(14, 13, 2) // 0 < t
	b.Flt(15, 2, 12) // t < tmin
	b.And(14, 14, 15)
	b.Beqz(14, "face.reject")
	b.Fmov(12, 2)
	b.Mov(11, 9)
	b.Label("face.reject")
	b.LwS(9, 10, fNext)
	b.J("face")

	b.Label("step.next")
	b.Addi(7, 7, 1)
	b.Li(14, p.Steps)
	b.Blt(7, 14, "step")

	// Record the result: out[2*ray] = best id, out[2*ray+1] = tmin.
	b.Slli(14, 6, 1)
	b.Add(14, 14, 18)
	b.SwS(11, 14, 0)
	b.FswS(12, 14, 1)
	b.Addi(6, 6, 1)
	b.Blt(6, 20, "ray")
	b.J("tile")
	b.Label("done")
	b.Halt()
	raw := b.MustBuild()

	// Scene generation and reference trace.
	type face struct {
		x0, x1, y0, y1, nx, ny, d float64
		next                      int64
	}
	fs := make([]face, nf)
	headv := make([]int64, p.Cells)
	for i := range headv {
		headv[i] = noHit
	}
	r := rng.New(p.Seed)
	for i := range fs {
		x0 := r.Range(0, 30)
		y0 := r.Range(0, 30)
		fs[i] = face{
			x0: x0, x1: x0 + r.Range(0.5, 8),
			y0: y0, y1: y0 + r.Range(0.5, 8),
			nx: r.Range(-1, 1), ny: r.Range(-1, 1), d: r.Range(0, 40),
		}
		cell := r.Intn(p.Cells)
		fs[i].next = headv[cell]
		headv[cell] = int64(i)
	}

	wantID := make([]int64, p.Rays)
	wantT := make([]float64, p.Rays)
	for ray := int64(0); ray < p.Rays; ray++ {
		rx, ry := rayCoords(ray)
		tmin := 1e30
		best := int64(noHit)
		for step := int64(0); step < p.Steps; step++ {
			cell := cellWalk(ray, step, mask)
			for f := headv[cell]; f != noHit; f = fs[f].next {
				fc := &fs[f]
				if rx < fc.x0 || fc.x1 < rx || ry < fc.y0 || fc.y1 < ry {
					continue
				}
				t := fc.nx*rx + fc.ny*ry + fc.d
				if 0 < t && t < tmin {
					tmin, best = t, f
				}
			}
		}
		wantID[ray], wantT[ray] = best, tmin
	}

	return &app.App{
		Name:        "ugray",
		Description: "ray tracing graphics renderer (kernel substitute)",
		Problem:     fmt.Sprintf("%d rays, %d faces, %d cells", p.Rays, nf, p.Cells),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i, f := range fs {
				base := int64(i) * faceCells
				sh.SetFloatAt("faces", base+fX0, f.x0)
				sh.SetFloatAt("faces", base+fX1, f.x1)
				sh.SetFloatAt("faces", base+fY0, f.y0)
				sh.SetFloatAt("faces", base+fY1, f.y1)
				sh.SetFloatAt("faces", base+fNx, f.nx)
				sh.SetFloatAt("faces", base+fNy, f.ny)
				sh.SetFloatAt("faces", base+fD, f.d)
				sh.SetWordAt("faces", base+fNext, f.next)
			}
			for i, h := range headv {
				sh.SetWordAt("heads", int64(i), h)
			}
		}),
		Check: func(sh *machine.Shared) error {
			for ray := int64(0); ray < p.Rays; ray++ {
				if got := sh.WordAt("out", 2*ray); got != wantID[ray] {
					return fmt.Errorf("ugray: ray %d hit face %d, want %d", ray, got, wantID[ray])
				}
				if got := sh.FloatAt("out", 2*ray+1); got != wantT[ray] {
					return fmt.Errorf("ugray: ray %d t = %g, want %g", ray, got, wantT[ray])
				}
			}
			return nil
		},
	}
}
