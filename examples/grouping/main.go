// Grouping: the paper's compiler optimization on a custom kernel.
//
// A small dot-product-style kernel loads two operands per iteration. The
// optimizer hoists the independent shared loads together and inserts one
// explicit Switch per group (§5.1), halving the context switches. The
// example prints the transformed assembly and measures the effect.
package main

import (
	"context"
	"fmt"
	"log"

	"mtsim"
	"mtsim/internal/asm"
)

const n = 4000

func build() (*mtsim.Program, func(*mtsim.Shared), func(*mtsim.Shared) error) {
	b := mtsim.NewProgram("dotprod")
	xs := b.Shared("xs", n)
	ys := b.Shared("ys", n)
	out := b.Shared("out", 64) // one slot per thread
	ctr := b.Shared("ctr", 1)

	// Each thread claims chunks and accumulates x[i]*y[i] privately,
	// then stores its partial sum into its own slot.
	b.Li(4, xs.Base)
	b.Li(5, ys.Base)
	b.Li(6, 0) // accumulator
	b.Label("chunk")
	b.Li(14, ctr.Base)
	mtsim.SelfSchedule(b, 14, 0, 64, 7, 15)
	b.Li(14, n)
	b.Bge(7, 14, "done")
	b.Addi(11, 7, 64)
	b.Blt(11, 14, "clamped")
	b.Mov(11, 14) // last chunk ends at n
	b.Label("clamped")
	b.Label("loop")
	b.Add(8, 4, 7)
	b.Add(9, 5, 7)
	b.LwS(12, 8, 0) // x[i]   — independent loads the optimizer groups
	b.LwS(13, 9, 0) // y[i]
	b.Mul(12, 12, 13)
	b.Add(6, 6, 12)
	b.Addi(7, 7, 1)
	b.Blt(7, 11, "loop")
	b.J("chunk")
	b.Label("done")
	b.Li(14, out.Base)
	b.Add(14, 14, mtsim.RegTid)
	b.SwS(6, 14, 0)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	var want int64
	init := func(sh *mtsim.Shared) {
		for i := int64(0); i < n; i++ {
			sh.SetWordAt("xs", i, i%17)
			sh.SetWordAt("ys", i, i%13)
		}
	}
	for i := int64(0); i < n; i++ {
		want += (i % 17) * (i % 13)
	}
	check := func(sh *mtsim.Shared) error {
		var got int64
		for t := int64(0); t < 64; t++ {
			got += sh.WordAt("out", t)
		}
		if got != want {
			return fmt.Errorf("dot product = %d, want %d", got, want)
		}
		return nil
	}
	return p, init, check
}

func main() {
	raw, init, check := build()
	grouped, st, err := mtsim.Optimize(raw)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("grouped inner section (note the loads hoisted above one switch):")
	fmt.Println(asm.Format(grouped))
	fmt.Printf("static grouping: %.2f loads per switch (groups: %v)\n\n",
		st.StaticGrouping(), st.GroupSizes)

	for threads := 2; threads <= 16; threads *= 2 {
		r1, err := mtsim.RunCheckedContext(context.Background(), mtsim.Config{
			Procs: 4, Threads: threads, Model: mtsim.SwitchOnLoad,
		}, raw, init, check)
		if err != nil {
			log.Fatal(err)
		}
		r2, err := mtsim.RunCheckedContext(context.Background(), mtsim.Config{
			Procs: 4, Threads: threads, Model: mtsim.ExplicitSwitch,
		}, grouped, init, check)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("threads=%-3d switch-on-load: %7d cycles (util %.2f)   explicit-switch: %7d cycles (util %.2f)\n",
			threads, r1.Cycles, r1.Utilization(), r2.Cycles, r2.Utilization())
	}
}
