// Command mtasm assembles, disassembles, optimizes and runs .mt assembly
// files.
//
// Usage:
//
//	mtasm -dump -app sieve > sieve.mt     # disassemble a benchmark
//	mtasm sieve.mt                        # assemble + validate
//	mtasm -group sieve.mt                 # assemble, group, print
//	mtasm -run -procs 4 -threads 6 prog.mt
//
// Assembled programs run with zeroed shared memory (there is no host
// Init), so -run suits self-contained programs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mtsim"
	"mtsim/internal/asm"
)

func main() {
	dump := flag.String("dump", "", "disassemble a benchmark application instead of reading a file")
	scaleName := flag.String("scale", "quick", "scale for -dump")
	group := flag.Bool("group", false, "apply the grouping optimizer and print the result")
	run := flag.Bool("run", false, "run the program after assembling")
	modelName := flag.String("model", "explicit-switch", "model for -run: "+strings.Join(mtsim.ModelNames(), ", "))
	procs := flag.Int("procs", 1, "processors for -run")
	threads := flag.Int("threads", 1, "threads per processor for -run")
	latency := flag.Int("latency", mtsim.DefaultLatency, "latency for -run")
	flag.Parse()

	if *dump != "" {
		scale, err := mtsim.ParseScale(*scaleName)
		if err != nil {
			fatal(err)
		}
		a, err := mtsim.NewApp(*dump, scale)
		if err != nil {
			fatal(err)
		}
		fmt.Print(asm.Format(a.Raw))
		return
	}

	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: mtasm [flags] file.mt (or -dump <app>)"))
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	p, err := asm.Parse(f)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mtasm: %s: %d instructions, %d shared cells, %d local cells\n",
		p.Name, len(p.Instrs), p.Shared.Size(), p.Local.Size())

	if *group {
		g, st, err := mtsim.Optimize(p)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mtasm: grouped %d loads into %d switches (%.2f loads/switch)\n",
			st.SharedLoads, st.Switches, st.StaticGrouping())
		fmt.Print(asm.Format(g))
		p = g
	}

	if *run {
		model, err := mtsim.ParseModel(*modelName)
		if err != nil {
			fatal(err)
		}
		res, err := mtsim.RunContext(context.Background(), mtsim.Config{
			Procs: *procs, Threads: *threads, Model: model, Latency: *latency,
			CollectRunLengths: true,
		}, p, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Summary())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtasm:", err)
	os.Exit(1)
}
