// Package blkmat builds the paper's blocked matrix multiply (Table 1:
// 200 x 200 matrices).
//
// Threads self-schedule C blocks with Fetch-and-Add. For each C block the
// thread walks the K block row/column, copying the A and B blocks into
// thread-local memory with paired Load-Doubles, multiplying locally, and
// finally storing the C block back with paired Store-Doubles. The private
// copies are why the paper singles blkmat out for its "exceptionally high
// mean run-length" (§4.1): almost all cycles go to the local compute
// loop, which performs no shared accesses at all.
package blkmat

import (
	"fmt"
	"math"

	"mtsim/internal/app"
	"mtsim/internal/machine"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// Params sizes the problem: N x N matrices in BS x BS blocks.
type Params struct {
	N  int64
	BS int64
	// Seed for the random integer-valued matrices.
	Seed uint64
}

// ParamsFor returns the problem size for a scale. Full is the paper's
// 200x200 (rounded up to a multiple of the block size).
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{N: 48, BS: 8, Seed: 1}
	case app.Medium:
		return Params{N: 96, BS: 8, Seed: 1}
	default:
		return Params{N: 208, BS: 16, Seed: 1}
	}
}

func (p Params) normalized() Params {
	if p.BS < 2 {
		p.BS = 2
	}
	if p.BS%2 == 1 {
		p.BS++
	}
	if p.N < p.BS {
		p.N = p.BS
	}
	if p.N%p.BS != 0 {
		p.N += p.BS - p.N%p.BS
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	nb := p.N / p.BS
	bs := p.BS
	n := p.N

	b := prog.NewBuilder("blkmat")
	a := b.Shared("A", n*n)
	bm := b.Shared("B", n*n)
	c := b.Shared("C", n*n)
	tctr := b.Shared("tctr", 1)
	la := b.Local("la", bs*bs)
	lb := b.Local("lb", bs*bs)
	lc := b.Local("lc", bs*bs)

	// Register plan:
	//   r4  task counter base     r5  task id / scratch
	//   r6  bi*BS (row origin)    r7  bj*BS (col origin)
	//   r8  bk loop index         r9  shared src/dst pointer
	//   r10 local pointer         r11 inner row index
	//   r12 inner col/pair index  r13/r14 Ld pair
	//   r16 i  r17 j  r18 k       r19..r21 address scratch
	//   f1 accumulator, f2/f3 operands

	b.Label("task")
	b.Li(4, tctr.Base)
	b.Li(5, 1)
	b.Faa(5, 4, 0, 5) // t = next block task
	b.Li(19, nb*nb)
	b.Bge(5, 19, "done")
	b.Li(19, nb)
	b.Div(6, 5, 19)
	b.Rem(7, 5, 19)
	b.Muli(6, 6, bs) // row origin of C block
	b.Muli(7, 7, bs) // col origin of C block

	// Zero the local C accumulator block.
	b.Li(10, lc.Base)
	b.Li(11, 0)
	b.Li(12, bs*bs)
	b.Label("zero")
	b.Sw(0, 10, 0)
	b.Addi(10, 10, 1)
	b.Addi(11, 11, 1)
	b.Blt(11, 12, "zero")

	b.Li(8, 0) // bk
	b.Label("kblock")

	// Copy A block (rows 6..6+BS-1, cols bk*BS..): pairs via Load-Double.
	b.Muli(9, 8, bs) // bk*BS = column origin in A, row origin in B
	b.Li(11, 0)      // local row
	b.Label("copyA.row")
	b.Add(19, 6, 11) // global row = bi*BS + r
	b.Muli(19, 19, n)
	b.Add(19, 19, 9) // + bk*BS
	b.Li(20, a.Base)
	b.Add(19, 19, 20) // shared pointer
	b.Muli(10, 11, bs)
	b.Li(20, la.Base)
	b.Add(10, 10, 20) // local pointer
	b.Li(12, 0)
	b.Label("copyA.pair")
	b.LdS(13, 19, 0) // two matrix elements in one message
	b.Sd(13, 10, 0)
	b.Addi(19, 19, 2)
	b.Addi(10, 10, 2)
	b.Addi(12, 12, 2)
	b.Slti(21, 12, bs)
	b.Bnez(21, "copyA.pair")
	b.Addi(11, 11, 1)
	b.Slti(21, 11, bs)
	b.Bnez(21, "copyA.row")

	// Copy B block (rows bk*BS.., cols 7..7+BS-1).
	b.Li(11, 0)
	b.Label("copyB.row")
	b.Add(19, 9, 11) // global row = bk*BS + r
	b.Muli(19, 19, n)
	b.Add(19, 19, 7) // + bj*BS
	b.Li(20, bm.Base)
	b.Add(19, 19, 20)
	b.Muli(10, 11, bs)
	b.Li(20, lb.Base)
	b.Add(10, 10, 20)
	b.Li(12, 0)
	b.Label("copyB.pair")
	b.LdS(13, 19, 0)
	b.Sd(13, 10, 0)
	b.Addi(19, 19, 2)
	b.Addi(10, 10, 2)
	b.Addi(12, 12, 2)
	b.Slti(21, 12, bs)
	b.Bnez(21, "copyB.pair")
	b.Addi(11, 11, 1)
	b.Slti(21, 11, bs)
	b.Bnez(21, "copyB.row")

	// Local multiply: lc[i][j] += la[i][k] * lb[k][j].
	b.Li(16, 0)
	b.Label("mul.i")
	b.Li(17, 0)
	b.Label("mul.j")
	b.Muli(19, 16, bs)
	b.Add(19, 19, 17)
	b.Li(20, lc.Base)
	b.Add(19, 19, 20)
	b.Flw(1, 19, 0) // accumulator
	b.Li(18, 0)
	b.Label("mul.k")
	b.Muli(20, 16, bs)
	b.Add(20, 20, 18)
	b.Li(21, la.Base)
	b.Add(20, 20, 21)
	b.Flw(2, 20, 0)
	b.Muli(20, 18, bs)
	b.Add(20, 20, 17)
	b.Li(21, lb.Base)
	b.Add(20, 20, 21)
	b.Flw(3, 20, 0)
	b.Fmul(2, 2, 3)
	b.Fadd(1, 1, 2)
	b.Addi(18, 18, 1)
	b.Slti(21, 18, bs)
	b.Bnez(21, "mul.k")
	b.Fsw(1, 19, 0)
	b.Addi(17, 17, 1)
	b.Slti(21, 17, bs)
	b.Bnez(21, "mul.j")
	b.Addi(16, 16, 1)
	b.Slti(21, 16, bs)
	b.Bnez(21, "mul.i")

	b.Addi(8, 8, 1)
	b.Li(21, nb)
	b.Blt(8, 21, "kblock")

	// Write the C block back, pairs via Store-Double.
	b.Li(11, 0)
	b.Label("wb.row")
	b.Add(19, 6, 11)
	b.Muli(19, 19, n)
	b.Add(19, 19, 7)
	b.Li(20, c.Base)
	b.Add(19, 19, 20)
	b.Muli(10, 11, bs)
	b.Li(20, lc.Base)
	b.Add(10, 10, 20)
	b.Li(12, 0)
	b.Label("wb.pair")
	b.Ld(13, 10, 0)
	b.SdS(13, 19, 0)
	b.Addi(19, 19, 2)
	b.Addi(10, 10, 2)
	b.Addi(12, 12, 2)
	b.Slti(21, 12, bs)
	b.Bnez(21, "wb.pair")
	b.Addi(11, 11, 1)
	b.Slti(21, 11, bs)
	b.Bnez(21, "wb.row")

	b.J("task")
	b.Label("done")
	b.Halt()
	raw := b.MustBuild()

	// Reference result: small random integers keep float products exact.
	av := make([]float64, n*n)
	bv := make([]float64, n*n)
	r := rng.New(p.Seed)
	for i := range av {
		av[i] = float64(r.Intn(9) - 4)
	}
	for i := range bv {
		bv[i] = float64(r.Intn(9) - 4)
	}
	want := make([]float64, n*n)
	// Accumulate in the same k order as the simulated kernel so float
	// results match exactly.
	for i := int64(0); i < n; i++ {
		for k := int64(0); k < n; k++ {
			aik := av[i*n+k]
			for j := int64(0); j < n; j++ {
				want[i*n+j] += aik * bv[k*n+j]
			}
		}
	}

	return &app.App{
		Name:        "blkmat",
		Description: "blocked matrix multiply",
		Problem:     fmt.Sprintf("%d x %d matrices, %d x %d blocks", n, n, bs, bs),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i < n*n; i++ {
				sh.SetFloatAt("A", i, av[i])
				sh.SetFloatAt("B", i, bv[i])
			}
		}),
		Check: func(sh *machine.Shared) error {
			for i := int64(0); i < n*n; i++ {
				if got := sh.FloatAt("C", i); got != want[i] {
					return fmt.Errorf("blkmat: C[%d] = %g, want %g", i, got, want[i])
				}
			}
			return nil
		},
	}
}

var _ = math.Abs // keep math available for future tolerance checks
