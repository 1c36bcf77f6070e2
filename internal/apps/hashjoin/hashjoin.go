// Package hashjoin builds an irregular two-phase hash join. Threads
// first partition a build relation into shared hash buckets —
// claiming slots with Fetch-and-Add so concurrent inserts into the
// same bucket never collide — then cross a sense-reversing barrier
// and probe the table with a second relation, summing the payloads of
// matching keys into a global accumulator.
//
// The probe phase is where the irregularity lives: the bucket index
// is a hash of a loaded key, so the chain of loads (key → bucket
// count → bucket entries) is address-dependent and lands on
// pseudo-random memory modules, and bucket occupancies are skewed by
// the random key distribution. Insertion order inside a bucket varies
// with thread interleaving, but the join sum is order-independent, so
// the checked result is deterministic for any schedule.
package hashjoin

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
	// Build and Probe are the relation cardinalities.
	Build int64
	Probe int64
	// Buckets is the hash-table width (keys hash with key % Buckets).
	Buckets int64
	// Keys is the key universe; smaller values mean more matches and
	// more skew.
	Keys int64
	// Chunk is the self-scheduling chunk for both phases.
	Chunk int64
	// Seed drives the deterministic relation generator.
	Seed uint64
}

// ParamsFor returns the problem size for a scale.
func ParamsFor(s app.Scale) Params {
	switch s {
	case app.Quick:
		return Params{Build: 512, Probe: 1024, Buckets: 64, Keys: 256, Chunk: 16, Seed: 17}
	case app.Medium:
		return Params{Build: 4096, Probe: 8192, Buckets: 256, Keys: 2048, Chunk: 32, Seed: 17}
	default:
		return Params{Build: 16384, Probe: 65536, Buckets: 1024, Keys: 8192, Chunk: 64, Seed: 17}
	}
}

func (p Params) normalized() Params {
	if p.Build < 8 {
		p.Build = 8
	}
	if p.Probe < 8 {
		p.Probe = 8
	}
	if p.Buckets < 2 {
		p.Buckets = 2
	}
	if p.Keys < 2 {
		p.Keys = 2
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
	rkey := make([]int64, p.Build)
	rpay := make([]int64, p.Build)
	for i := range rkey {
		rkey[i] = r.Intn(p.Keys)
		rpay[i] = r.Intn(1000)
	}
	skey := make([]int64, p.Probe)
	for j := range skey {
		skey[j] = r.Intn(p.Keys)
	}

	// Bucket capacity is the exact maximum occupancy, computed from the
	// generated keys, so the shared layout is as tight as a real
	// partitioned join and overflow is impossible by construction.
	occ := make([]int64, p.Buckets)
	cap := int64(1)
	for _, k := range rkey {
		b := k % p.Buckets
		occ[b]++
		if occ[b] > cap {
			cap = occ[b]
		}
	}

	b := prog.NewBuilder("hashjoin")
	rkeyS := b.Shared("rkey", p.Build)
	rpayS := b.Shared("rpay", p.Build)
	skeyS := b.Shared("skey", p.Probe)
	bkeyS := b.Shared("bkey", p.Buckets*cap)
	bpayS := b.Shared("bpay", p.Buckets*cap)
	bcntS := b.Shared("bcnt", p.Buckets)
	bar := par.AllocBarrier(b, "bar")
	sctr1 := b.Shared("sctr1", 1)
	sctr2 := b.Shared("sctr2", 1)
	acc := b.Shared("acc", 1)

	// Registers: r4 relation base, r5 payload base, r6 phase bound,
	// r7 chunk start, r8 counter pointer, r9/r10 scratch, r11 chunk
	// end, r12 probe-phase local sum, r13 tuple index, r14 key,
	// r15 bucket, r16 address scratch, r17 slot / bucket count,
	// r18 payload / scan index, r19 bucket count (hash modulus),
	// r20 bucket capacity, r21 bcnt base, r22 bkey base, r23 bpay
	// base, r24 scan scratch, r25 barrier base, r26 barrier sense
	// (dedicated, starts 0).
	b.Li(19, p.Buckets)
	b.Li(20, cap)
	b.Li(21, bcntS.Base)
	b.Li(22, bkeyS.Base)
	b.Li(23, bpayS.Base)
	b.Li(25, bar.Base)

	// Build phase: partition rkey/rpay into the buckets.
	b.Li(4, rkeyS.Base)
	b.Li(5, rpayS.Base)
	b.Li(6, p.Build)
	b.Label("build.seg")
	b.Li(8, sctr1.Base)
	par.SelfSchedule(b, 8, 0, p.Chunk, 7, 10)
	b.Bge(7, 6, "build.done")
	b.Addi(11, 7, p.Chunk)
	b.Blt(11, 6, "build.eok")
	b.Mov(11, 6)
	b.Label("build.eok")
	b.Mov(13, 7)
	b.Label("build.loop")
	b.Bge(13, 11, "build.seg")
	b.Add(16, 4, 13)
	b.LwS(14, 16, 0) // k = rkey[i]
	b.Rem(15, 14, 19)
	b.Add(10, 21, 15)
	b.Li(9, 1)
	b.Faa(17, 10, 0, 9) // slot = bcnt[b]++
	b.Mul(9, 15, 20)
	b.Add(9, 9, 17) // idx = b*cap + slot
	b.Add(10, 22, 9)
	b.SwS(14, 10, 0) // bkey[idx] = k
	b.Add(16, 5, 13)
	b.LwS(18, 16, 0) // pay = rpay[i]
	b.Add(10, 23, 9)
	b.SwS(18, 10, 0) // bpay[idx] = pay
	b.Addi(13, 13, 1)
	b.J("build.loop")
	b.Label("build.done")

	// Every insert must land before any probe reads the table.
	par.Barrier(b, 25, 0, 26, 9, 10)

	// Probe phase: scan the matching bucket for each probe key.
	b.Li(4, skeyS.Base)
	b.Li(6, p.Probe)
	b.Label("probe.seg")
	b.Li(8, sctr2.Base)
	par.SelfSchedule(b, 8, 0, p.Chunk, 7, 10)
	b.Bge(7, 6, "probe.done")
	b.Addi(11, 7, p.Chunk)
	b.Blt(11, 6, "probe.eok")
	b.Mov(11, 6)
	b.Label("probe.eok")
	b.Li(12, 0)
	b.Mov(13, 7)
	b.Label("probe.loop")
	b.Bge(13, 11, "probe.flush")
	b.Add(16, 4, 13)
	b.LwS(14, 16, 0) // k = skey[j]
	b.Rem(15, 14, 19)
	b.Add(10, 21, 15)
	b.LwS(17, 10, 0) // n = bcnt[b]
	b.Mul(9, 15, 20) // idx = b*cap
	b.Li(18, 0)
	b.Label("probe.scan")
	b.Bge(18, 17, "probe.next")
	b.Add(10, 22, 9)
	b.Add(10, 10, 18)
	b.LwS(24, 10, 0) // bkey[idx+s]
	b.Bne(24, 14, "probe.skip")
	b.Add(10, 23, 9)
	b.Add(10, 10, 18)
	b.LwS(24, 10, 0) // bpay[idx+s]
	b.Add(12, 12, 24)
	b.Label("probe.skip")
	b.Addi(18, 18, 1)
	b.J("probe.scan")
	b.Label("probe.next")
	b.Addi(13, 13, 1)
	b.J("probe.loop")
	b.Label("probe.flush")
	b.Li(8, acc.Base)
	b.Faa(9, 8, 0, 12)
	b.J("probe.seg")
	b.Label("probe.done")
	b.Halt()

	raw := b.MustBuild()
	want := hostJoin(rkey, rpay, skey)

	return &app.App{
		Name:        "hashjoin",
		Description: "build/probe hash join with Fetch-and-Add slot claims",
		Problem:     fmt.Sprintf("%d build x %d probe, %d buckets", p.Build, p.Probe, p.Buckets),
		Raw:         raw,
		TableProcs:  16,
		Init: machine.NewImage(raw, func(sh *machine.Shared) {
			for i := int64(0); i < p.Build; i++ {
				sh.SetWordAt("rkey", i, rkey[i])
				sh.SetWordAt("rpay", i, rpay[i])
			}
			for j := int64(0); j < p.Probe; j++ {
				sh.SetWordAt("skey", j, skey[j])
			}
		}),
		Check: func(sh *machine.Shared) error {
			if got := sh.WordAt("acc", 0); got != want {
				return fmt.Errorf("hashjoin: join sum %d, want %d", got, want)
			}
			for bk := int64(0); bk < p.Buckets; bk++ {
				if got := sh.WordAt("bcnt", bk); got != occ[bk] {
					return fmt.Errorf("hashjoin: bucket %d holds %d entries, want %d", bk, got, occ[bk])
				}
			}
			return nil
		},
	}
}

// hostJoin is the reference join: for every probe key, the sum of the
// payloads of all matching build tuples. The bucket structure cannot
// change the answer, so the mirror skips it.
func hostJoin(rkey, rpay, skey []int64) int64 {
	paySum := make(map[int64]int64, len(rkey))
	for i, k := range rkey {
		paySum[k] += rpay[i]
	}
	var sum int64
	for _, k := range skey {
		sum += paySum[k]
	}
	return sum
}
