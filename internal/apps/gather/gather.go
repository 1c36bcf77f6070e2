// Package gather builds an irregular pointer-chasing kernel: threads
// traverse a random functional graph (each node has exactly one
// outgoing edge) and sum the values they visit.
//
// The access pattern is the opposite of sieve's streaming regularity:
// every hop is a shared load whose *address* comes from the previous
// shared load (cur = next[cur]), so consecutive loads cannot overlap,
// cannot be grouped by the §5 transformation, and land on
// pseudo-random memory modules. Run lengths collapse toward the
// per-hop instruction count and the network sees scattered,
// dependent traffic — the regime the multithreading-level and
// topology sweeps are about. Threads self-schedule chunks of start
// nodes with Fetch-and-Add and accumulate into a global checksum, so
// the result is deterministic under any interleaving.
package gather

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
	// Nodes is the graph size.
	Nodes int64
	// Hops is the chase depth from each start node.
	Hops int64
	// Chunk is the self-scheduling chunk of start nodes.
	Chunk int64
	// Seed drives the deterministic graph generator.
	Seed uint64
}

// ParamsFor returns the problem size for a scale.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{Nodes: 2048, Hops: 8, Chunk: 32, Seed: 11}
	case app.Medium:
		return Params{Nodes: 16384, Hops: 12, Chunk: 64, Seed: 11}
	default:
		return Params{Nodes: 131072, Hops: 16, Chunk: 128, Seed: 11}
	}
}

func (p Params) normalized() Params {
	if p.Nodes < 16 {
		p.Nodes = 16
	}
	if p.Hops < 1 {
		p.Hops = 1
	}
	if p.Chunk < 1 {
		p.Chunk = 1
	}
	return p
}

// New builds the application.
func New(p Params) *app.App {
	p = p.normalized()
	// The graph and node values come from the seeded generator, so a
	// (Params, Seed) pair pins the workload bit-for-bit.
	r := rng.New(p.Seed)
	next := make([]int64, p.Nodes)
	val := make([]int64, p.Nodes)
	for i := range next {
		next[i] = r.Intn(p.Nodes)
	}
	for i := range val {
		val[i] = r.Intn(1000)
	}

	b := prog.NewBuilder("gather")
	nextS := b.Shared("next", p.Nodes)
	valS := b.Shared("val", p.Nodes)
	lastS := b.Shared("last", p.Nodes)
	sctr := b.Shared("sctr", 1)
	acc := b.Shared("acc", 1)

	// Registers: r4 next base, r5 val base, r6 node count, r7 chunk
	// start, r8 pointer, r9/r10 scratch, r11 chunk end, r12 local sum,
	// r13 start node, r14 current node, r15 hop counter, r16 address
	// scratch, r17 loaded value, r18 hop bound, r19 last base.
	b.Li(4, nextS.Base)
	b.Li(5, valS.Base)
	b.Li(6, p.Nodes)
	b.Li(18, p.Hops)
	b.Li(19, lastS.Base)

	b.Label("seg")
	b.Li(8, sctr.Base)
	par.SelfSchedule(b, 8, 0, p.Chunk, 7, 10)
	b.Bge(7, 6, "seg.done")
	b.Addi(11, 7, p.Chunk)
	b.Blt(11, 6, "eok")
	b.Mov(11, 6)
	b.Label("eok")
	b.Li(12, 0)
	b.Mov(13, 7)
	b.Label("node")
	b.Bge(13, 11, "flush")
	b.Mov(14, 13)
	b.Li(15, 0)
	b.Label("hop")
	b.Bge(15, 18, "hop.done")
	b.Add(16, 5, 14)
	b.LwS(17, 16, 0) // val[cur]
	b.Add(12, 12, 17)
	b.Add(16, 4, 14)
	b.LwS(14, 16, 0) // cur = next[cur]: the dependent chase
	b.Addi(15, 15, 1)
	b.J("hop")
	b.Label("hop.done")
	b.Add(16, 19, 13)
	b.SwS(14, 16, 0) // last[start] = where the chase ended
	b.Addi(13, 13, 1)
	b.J("node")
	b.Label("flush")
	b.Li(8, acc.Base)
	b.Faa(9, 8, 0, 12)
	b.J("seg")
	b.Label("seg.done")
	b.Halt()

	raw := b.MustBuild()
	want, wantLast := hostGather(next, val, p.Hops)

	return &app.App{
		Name:        "gather",
		Description: "pointer-chasing traversal of a random functional graph",
		Problem:     fmt.Sprintf("%d nodes x %d hops", p.Nodes, p.Hops),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i < p.Nodes; i++ {
				sh.SetWordAt("next", i, next[i])
				sh.SetWordAt("val", i, val[i])
			}
		}),
		Check: func(sh *machine.Shared) error {
			if got := sh.WordAt("acc", 0); got != want {
				return fmt.Errorf("gather: checksum %d, want %d", got, want)
			}
			for i := int64(0); i < p.Nodes; i++ {
				if got := sh.WordAt("last", i); got != wantLast[i] {
					return fmt.Errorf("gather: last[%d] = %d, want %d", i, got, wantLast[i])
				}
			}
			return nil
		},
	}
}

// hostGather is the reference traversal: the value checksum and the
// node each chase ends on.
func hostGather(next, val []int64, hops int64) (int64, []int64) {
	var sum int64
	last := make([]int64, len(next))
	for i := range next {
		cur := int64(i)
		for h := int64(0); h < hops; h++ {
			sum += val[cur]
			cur = next[cur]
		}
		last[i] = cur
	}
	return sum, last
}
