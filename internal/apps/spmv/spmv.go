// Package spmv builds an irregular sparse matrix-vector product over
// a CSR (compressed sparse row) matrix with integer entries. Threads
// self-schedule chunks of rows; each row walks its rowptr-delimited
// slice of column indices and values, gathers x[colidx[k]] — a load
// whose address comes from another load — and stores the dot product
// into y[row].
//
// Row lengths are drawn per-row from the seeded generator, so chunks
// carry unequal work and the load balance is data-dependent, unlike
// the uniform strips of sor or matmul. The scattered x-gathers spread
// across memory modules under a real topology while the CSR streams
// stay sequential, mixing regular and irregular traffic in one
// kernel. Every y element is checked against a host mirror.
package spmv

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
	// Rows and Cols shape the matrix.
	Rows int64
	Cols int64
	// MaxRowLen bounds the per-row nonzero count (drawn uniformly from
	// [0, MaxRowLen]).
	MaxRowLen int64
	// Chunk is the self-scheduling chunk of rows.
	Chunk int64
	// Seed drives the deterministic matrix generator.
	Seed uint64
}

// ParamsFor returns the problem size for a scale.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{Rows: 512, Cols: 512, MaxRowLen: 8, Chunk: 16, Seed: 23}
	case app.Medium:
		return Params{Rows: 4096, Cols: 4096, MaxRowLen: 12, Chunk: 32, Seed: 23}
	default:
		return Params{Rows: 16384, Cols: 16384, MaxRowLen: 16, Chunk: 64, Seed: 23}
	}
}

func (p Params) normalized() Params {
	if p.Rows < 8 {
		p.Rows = 8
	}
	if p.Cols < 8 {
		p.Cols = 8
	}
	if p.MaxRowLen < 1 {
		p.MaxRowLen = 1
	}
	if p.Chunk < 1 {
		p.Chunk = 1
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	r := rng.New(p.Seed)
	rowptr := make([]int64, p.Rows+1)
	for i := int64(0); i < p.Rows; i++ {
		rowptr[i+1] = rowptr[i] + r.Intn(p.MaxRowLen+1)
	}
	nnz := rowptr[p.Rows]
	colidx := make([]int64, nnz)
	vals := make([]int64, nnz)
	for k := range colidx {
		colidx[k] = r.Intn(p.Cols)
		vals[k] = r.Intn(100)
	}
	x := make([]int64, p.Cols)
	for c := range x {
		x[c] = r.Intn(100)
	}

	b := prog.NewBuilder("spmv")
	rowptrS := b.Shared("rowptr", p.Rows+1)
	colidxS := b.Shared("colidx", nnz+1) // +1 keeps the segment non-empty for an all-zero matrix
	valsS := b.Shared("vals", nnz+1)
	xS := b.Shared("x", p.Cols)
	yS := b.Shared("y", p.Rows)
	sctr := b.Shared("sctr", 1)

	// Registers: r4 rowptr base, r5 colidx base, r6 vals base, r7 chunk
	// start, r8 counter pointer, r9/r10 scratch, r11 chunk end, r12 row
	// accumulator, r13 row index, r14 element cursor, r15 row end,
	// r16 address scratch, r17 column / x value, r18 matrix value,
	// r19 x base, r20 y base, r21 row count.
	b.Li(4, rowptrS.Base)
	b.Li(5, colidxS.Base)
	b.Li(6, valsS.Base)
	b.Li(19, xS.Base)
	b.Li(20, yS.Base)
	b.Li(21, p.Rows)

	b.Label("seg")
	b.Li(8, sctr.Base)
	par.SelfSchedule(b, 8, 0, p.Chunk, 7, 10)
	b.Bge(7, 21, "done")
	b.Addi(11, 7, p.Chunk)
	b.Blt(11, 21, "eok")
	b.Mov(11, 21)
	b.Label("eok")
	b.Mov(13, 7)
	b.Label("row")
	b.Bge(13, 11, "seg")
	b.Add(16, 4, 13)
	b.LwS(14, 16, 0) // k   = rowptr[i]
	b.LwS(15, 16, 1) // end = rowptr[i+1]
	b.Li(12, 0)
	b.Label("elem")
	b.Bge(14, 15, "row.store")
	b.Add(16, 5, 14)
	b.LwS(17, 16, 0) // c = colidx[k]
	b.Add(16, 6, 14)
	b.LwS(18, 16, 0) // v = vals[k]
	b.Add(16, 19, 17)
	b.LwS(17, 16, 0) // x[c]: the dependent gather
	b.Mul(17, 17, 18)
	b.Add(12, 12, 17)
	b.Addi(14, 14, 1)
	b.J("elem")
	b.Label("row.store")
	b.Add(16, 20, 13)
	b.SwS(12, 16, 0) // y[i] = row dot product
	b.Addi(13, 13, 1)
	b.J("row")
	b.Label("done")
	b.Halt()

	raw := b.MustBuild()
	want := hostSpmv(rowptr, colidx, vals, x)

	return &app.App{
		Name:        "spmv",
		Description: "CSR sparse matrix-vector product with scattered x-gathers",
		Problem:     fmt.Sprintf("%dx%d, %d nonzeros", p.Rows, p.Cols, nnz),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i <= p.Rows; i++ {
				sh.SetWordAt("rowptr", i, rowptr[i])
			}
			for k := int64(0); k < nnz; k++ {
				sh.SetWordAt("colidx", k, colidx[k])
				sh.SetWordAt("vals", k, vals[k])
			}
			for c := int64(0); c < p.Cols; c++ {
				sh.SetWordAt("x", c, x[c])
			}
		}),
		Check: func(sh *machine.Shared) error {
			for i := int64(0); i < p.Rows; i++ {
				if got := sh.WordAt("y", i); got != want[i] {
					return fmt.Errorf("spmv: y[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}

// hostSpmv is the reference product.
func hostSpmv(rowptr, colidx, vals, x []int64) []int64 {
	y := make([]int64, len(rowptr)-1)
	for i := range y {
		var sum int64
		for k := rowptr[i]; k < rowptr[i+1]; k++ {
			sum += vals[k] * x[colidx[k]]
		}
		y[i] = sum
	}
	return y
}
