// Package locus builds a stand-in for the SPLASH LocusRoute standard-cell
// wire router (Table 1: Primary2, 1250 cells x 20 channels).
//
// Substitution (see DESIGN.md §2): the original evaluates candidate
// routes for each wire by walking rows and columns of a cost array, then
// commits the cheapest route. Our kernel keeps that structure: wires are
// self-scheduled with Fetch-and-Add; for each wire two L-shaped routes
// are costed by walking a static congestion array one cell per loop
// iteration (the loop-carried single-load blocks that keep locus's
// run-lengths and intra-block grouping factor low — the paper measured
// 1.05), and the chosen route's cells are committed to a usage array with
// Fetch-and-Add, which keeps the final state deterministic under any
// interleaving. Horizontal walks touch consecutive addresses, which is
// precisely the inter-block grouping opportunity the paper's one-line
// window experiment found (84% hits): wires are generated wide and short
// so row walking dominates, as in a standard-cell channel router.
package locus

import (
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/machine"
	"mtsim/internal/par"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// Params sizes the problem.
type Params struct {
	// G is the routing grid dimension (G x G cost cells).
	G int64
	// Wires is the number of wires to route.
	Wires int64
	Seed  uint64
}

// ParamsFor returns the problem size for a scale.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{G: 64, Wires: 400, Seed: 5}
	case app.Medium:
		return Params{G: 128, Wires: 1500, Seed: 5}
	default:
		return Params{G: 256, Wires: 5000, Seed: 5}
	}
}

func (p Params) normalized() Params {
	if p.G < 32 {
		p.G = 32
	}
	if p.Wires < 1 {
		p.Wires = 1
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	g := p.G
	w := p.Wires

	b := prog.NewBuilder("locus")
	cost := b.Shared("cost", g*g)
	usage := b.Shared("usage", g*g)
	wires := b.Shared("wires", w*4)
	out := b.Shared("out", w)
	wctr := b.Shared("wctr", 1)
	_ = par.LockCells // routing commits via Fetch-and-Add; no locks needed

	// r4 cost base, r5 usage base, r6 wires base, r7 out base,
	// r9 wire id, r10..r13 x1 y1 x2 y2, r14 scratch/loaded cost,
	// r15 walk address, r16 accumulator, r17 loop index,
	// r18 route-A cost, r19 route-B cost, r21 constant 1, r22 G.
	b.Li(4, cost.Base)
	b.Li(5, usage.Base)
	b.Li(6, wires.Base)
	b.Li(7, out.Base)
	b.Li(21, 1)
	b.Li(22, g)

	b.Label("task")
	b.Li(14, wctr.Base)
	b.Faa(9, 14, 0, 21)
	b.Li(14, w)
	b.Bge(9, 14, "done")
	// Load the wire endpoints: two Load-Doubles from the packed record.
	b.Slli(15, 9, 2)
	b.Add(15, 15, 6)
	b.LdS(10, 15, 0) // x1, y1
	b.LdS(12, 15, 2) // x2, y2

	// Route A: row y1 from x1..x2, then column x2 from y1+1..y2.
	b.Li(16, 0)
	b.Mul(15, 11, 22)
	b.Add(15, 15, 4)
	b.Add(15, 15, 10) // &cost[y1*G + x1]
	b.Mov(17, 10)
	b.Label("a.row")
	b.LwS(14, 15, 0)
	b.Add(16, 16, 14)
	b.Addi(15, 15, 1)
	b.Addi(17, 17, 1)
	b.Bge(12, 17, "a.row") // while x <= x2
	b.Mul(15, 11, 22)
	b.Add(15, 15, 4)
	b.Add(15, 15, 12)
	b.Add(15, 15, 22) // &cost[(y1+1)*G + x2]
	b.Addi(17, 11, 1)
	b.Label("a.col")
	b.Bge(13, 17, "a.colbody")
	b.J("a.done")
	b.Label("a.colbody")
	b.LwS(14, 15, 0)
	b.Add(16, 16, 14)
	b.Add(15, 15, 22)
	b.Addi(17, 17, 1)
	b.J("a.col")
	b.Label("a.done")
	b.Mov(18, 16)

	// Route B: column x1 from y1..y2, then row y2 from x1+1..x2.
	b.Li(16, 0)
	b.Mul(15, 11, 22)
	b.Add(15, 15, 4)
	b.Add(15, 15, 10) // &cost[y1*G + x1]
	b.Mov(17, 11)
	b.Label("b.col")
	b.LwS(14, 15, 0)
	b.Add(16, 16, 14)
	b.Add(15, 15, 22)
	b.Addi(17, 17, 1)
	b.Bge(13, 17, "b.col") // while y <= y2
	b.Mul(15, 13, 22)
	b.Add(15, 15, 4)
	b.Add(15, 15, 10)
	b.Addi(15, 15, 1) // &cost[y2*G + x1+1]
	b.Addi(17, 10, 1)
	b.Label("b.row")
	b.Bge(12, 17, "b.rowbody")
	b.J("b.done")
	b.Label("b.rowbody")
	b.LwS(14, 15, 0)
	b.Add(16, 16, 14)
	b.Addi(15, 15, 1)
	b.Addi(17, 17, 1)
	b.J("b.row")
	b.Label("b.done")
	b.Mov(19, 16)

	// Choose the cheaper route (ties go to A) and record its cost.
	b.Add(14, 7, 9)
	b.Blt(19, 18, "commitB")
	b.SwS(18, 14, 0)
	// Commit A: usage++ along row y1 x1..x2 and column x2 y1+1..y2.
	b.Mul(15, 11, 22)
	b.Add(15, 15, 5)
	b.Add(15, 15, 10)
	b.Mov(17, 10)
	b.Label("ca.row")
	b.Faa(14, 15, 0, 21)
	b.Addi(15, 15, 1)
	b.Addi(17, 17, 1)
	b.Bge(12, 17, "ca.row")
	b.Mul(15, 11, 22)
	b.Add(15, 15, 5)
	b.Add(15, 15, 12)
	b.Add(15, 15, 22)
	b.Addi(17, 11, 1)
	b.Label("ca.col")
	b.Bge(13, 17, "ca.colbody")
	b.J("task")
	b.Label("ca.colbody")
	b.Faa(14, 15, 0, 21)
	b.Add(15, 15, 22)
	b.Addi(17, 17, 1)
	b.J("ca.col")

	b.Label("commitB")
	b.SwS(19, 14, 0)
	b.Mul(15, 11, 22)
	b.Add(15, 15, 5)
	b.Add(15, 15, 10)
	b.Mov(17, 11)
	b.Label("cb.col")
	b.Faa(14, 15, 0, 21)
	b.Add(15, 15, 22)
	b.Addi(17, 17, 1)
	b.Bge(13, 17, "cb.col")
	b.Mul(15, 13, 22)
	b.Add(15, 15, 5)
	b.Add(15, 15, 10)
	b.Addi(15, 15, 1)
	b.Addi(17, 10, 1)
	b.Label("cb.row")
	b.Bge(12, 17, "cb.rowbody")
	b.J("task")
	b.Label("cb.rowbody")
	b.Faa(14, 15, 0, 21)
	b.Addi(15, 15, 1)
	b.Addi(17, 17, 1)
	b.J("cb.row")

	b.Label("done")
	b.Halt()
	raw := b.MustBuild()

	// Workload generation and reference routing.
	type wire struct{ x1, y1, x2, y2 int64 }
	ws := make([]wire, w)
	costs := make([]int64, g*g)
	r := rng.New(p.Seed)
	for i := range costs {
		costs[i] = r.Intn(20)
	}
	for i := range ws {
		// Wide, short wires: row walking dominates, like channel routing.
		x1 := r.Intn(g - 28)
		y1 := 2 + r.Intn(g-8)
		ws[i] = wire{
			x1: x1, y1: y1,
			x2: x1 + 8 + r.Intn(20),
			y2: y1 + r.Intn(4) - 2,
		}
		if ws[i].y2 < ws[i].y1 {
			ws[i].y1, ws[i].y2 = ws[i].y2, ws[i].y1
		}
	}
	wantOut := make([]int64, w)
	wantUse := make([]int64, g*g)
	for i, wr := range ws {
		var ca, cb int64
		for x := wr.x1; x <= wr.x2; x++ {
			ca += costs[wr.y1*g+x]
		}
		for y := wr.y1 + 1; y <= wr.y2; y++ {
			ca += costs[y*g+wr.x2]
		}
		for y := wr.y1; y <= wr.y2; y++ {
			cb += costs[y*g+wr.x1]
		}
		for x := wr.x1 + 1; x <= wr.x2; x++ {
			cb += costs[wr.y2*g+x]
		}
		if cb < ca {
			wantOut[i] = cb
			for y := wr.y1; y <= wr.y2; y++ {
				wantUse[y*g+wr.x1]++
			}
			for x := wr.x1 + 1; x <= wr.x2; x++ {
				wantUse[wr.y2*g+x]++
			}
		} else {
			wantOut[i] = ca
			for x := wr.x1; x <= wr.x2; x++ {
				wantUse[wr.y1*g+x]++
			}
			for y := wr.y1 + 1; y <= wr.y2; y++ {
				wantUse[y*g+wr.x2]++
			}
		}
	}

	return &app.App{
		Name:        "locus",
		Description: "standard-cell wire router (kernel substitute)",
		Problem:     fmt.Sprintf("%d wires on a %d x %d grid", w, g, g),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i, c := range costs {
				sh.SetWordAt("cost", int64(i), c)
			}
			for i, wr := range ws {
				sh.SetWordAt("wires", int64(i)*4+0, wr.x1)
				sh.SetWordAt("wires", int64(i)*4+1, wr.y1)
				sh.SetWordAt("wires", int64(i)*4+2, wr.x2)
				sh.SetWordAt("wires", int64(i)*4+3, wr.y2)
			}
		}),
		Check: func(sh *machine.Shared) error {
			for i := int64(0); i < w; i++ {
				if got := sh.WordAt("out", i); got != wantOut[i] {
					return fmt.Errorf("locus: wire %d cost = %d, want %d", i, got, wantOut[i])
				}
			}
			for i := int64(0); i < g*g; i++ {
				if got := sh.WordAt("usage", i); got != wantUse[i] {
					return fmt.Errorf("locus: usage[%d] = %d, want %d", i, got, wantUse[i])
				}
			}
			return nil
		},
	}
}
