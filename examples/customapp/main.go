// Customapp: writing your own parallel program against the public API.
//
// The program computes a histogram of a shared data array: threads claim
// chunks with Fetch-and-Add self-scheduling, tally privately in local
// memory, and merge their tallies into the shared histogram under a
// ticket lock. It demonstrates the Builder assembly API, shared/local
// memory layout, the synchronization macros, host-side Init/Check, and
// running one program under several multithreading models.
package main

import (
	"context"
	"fmt"
	"log"

	"mtsim"
)

const (
	nData   = 20000
	nBins   = 16
	chunkSz = 128
)

func buildHistogram() (*mtsim.Program, func(*mtsim.Shared), func(*mtsim.Shared) error) {
	b := mtsim.NewProgram("histogram")
	data := b.Shared("data", nData)
	hist := b.Shared("hist", nBins)
	ctr := b.Shared("ctr", 1)
	lk := mtsim.AllocLock(b, "lock")
	lhist := b.Local("lhist", nBins)

	// r4 data base, r5 n, r7 chunk start, r8 pointer, r9 value,
	// r11 chunk end, r13 loop index, r14/r15 scratch.
	b.Li(4, data.Base)
	b.Li(5, nData)

	b.Label("chunk")
	b.Li(8, ctr.Base)
	mtsim.SelfSchedule(b, 8, 0, chunkSz, 7, 14)
	b.Bge(7, 5, "merge")
	b.Addi(11, 7, chunkSz)
	b.Blt(11, 5, "eok")
	b.Mov(11, 5)
	b.Label("eok")
	b.Add(8, 4, 7)
	b.Mov(13, 7)
	b.Label("tally")
	b.Bge(13, 11, "chunk")
	b.LwS(9, 8, 0)          // value
	b.Andi(9, 9, nBins-1)   // bin
	b.Lw(14, 9, lhist.Base) // local tally
	b.Addi(14, 14, 1)
	b.Sw(14, 9, lhist.Base)
	b.Addi(8, 8, 1)
	b.Addi(13, 13, 1)
	b.J("tally")

	// Merge the private tally into the shared histogram under the lock.
	b.Label("merge")
	b.Li(9, lk.Base)
	mtsim.LockAcquire(b, 9, 0, 14, 15)
	b.Li(13, 0)
	b.Li(8, hist.Base)
	b.Label("mloop")
	b.Lw(14, 13, lhist.Base)
	b.LwS(15, 8, 0) // safe under the lock
	b.Add(15, 15, 14)
	b.SwS(15, 8, 0)
	b.Addi(8, 8, 1)
	b.Addi(13, 13, 1)
	b.Slti(14, 13, nBins)
	b.Bnez(14, "mloop")
	mtsim.LockRelease(b, 9, 0, 14, 15)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Host side: deterministic data and the expected histogram.
	values := make([]int64, nData)
	want := make([]int64, nBins)
	seed := int64(12345)
	for i := range values {
		seed = seed*6364136223846793005 + 1442695040888963407
		values[i] = (seed >> 33) & 0x7fffffff
		want[values[i]&(nBins-1)]++
	}
	init := func(sh *mtsim.Shared) {
		for i, v := range values {
			sh.SetWordAt("data", int64(i), v)
		}
	}
	check := func(sh *mtsim.Shared) error {
		for i := int64(0); i < nBins; i++ {
			if got := sh.WordAt("hist", i); got != want[i] {
				return fmt.Errorf("hist[%d] = %d, want %d", i, got, want[i])
			}
		}
		return nil
	}
	return p, init, check
}

func main() {
	raw, init, check := buildHistogram()
	grouped, st, err := mtsim.Optimize(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("histogram: %d instructions, optimizer grouped %d loads into %d switches\n\n",
		len(raw.Instrs), st.SharedLoads, st.Switches)

	cfgBase := mtsim.Config{Procs: 4, Threads: 4, Latency: mtsim.DefaultLatency}
	for _, model := range []mtsim.Model{
		mtsim.SwitchOnLoad, mtsim.SwitchOnUse, mtsim.ExplicitSwitch, mtsim.ConditionalSwitch,
	} {
		cfg := cfgBase
		cfg.Model = model
		p := raw
		if model.UsesGrouping() {
			p = grouped
		}
		res, err := mtsim.RunCheckedContext(context.Background(), cfg, p, init, check)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s cycles=%-8d utilization=%.3f switches=%d\n",
			model, res.Cycles, res.Utilization(), res.TakenSwitches)
	}
	fmt.Println("\nall runs produced the correct histogram")
}
