// Command mtcc compiles MTC kernel-language source (.mtc) for the
// simulated multiprocessor: the paper's compiler story end to end.
//
// Usage:
//
//	mtcc prog.mtc                 # compile, print assembly
//	mtcc -group prog.mtc          # compile + §5.1 grouping, print assembly
//	mtcc -run -procs 4 -threads 6 -model explicit-switch prog.mtc
//
// With -run, grouped code is used automatically for the explicit-switch
// and conditional-switch models. Shared memory starts zeroed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mtsim"
	"mtsim/internal/asm"
	"mtsim/internal/mtc"
)

func main() {
	group := flag.Bool("group", false, "apply the grouping optimizer before printing")
	run := flag.Bool("run", false, "run the compiled program")
	modelName := flag.String("model", "explicit-switch", "model for -run: "+strings.Join(mtsim.ModelNames(), ", "))
	procs := flag.Int("procs", 1, "processors for -run")
	threads := flag.Int("threads", 1, "threads per processor for -run")
	latency := flag.Int("latency", mtsim.DefaultLatency, "latency for -run")
	flag.Parse()

	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: mtcc [flags] file.mtc"))
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	name := strings.TrimSuffix(filepath.Base(path), ".mtc")
	p, err := mtc.Compile(name, string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mtcc: %s: %d instructions, %d shared cells, %d local cells\n",
		p.Name, len(p.Instrs), p.Shared.Size(), p.Local.Size())

	model, err := mtsim.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	if *group || (*run && model.UsesGrouping()) {
		g, st, err := mtsim.Optimize(p)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mtcc: grouped %d loads into %d switches (%.2f loads/switch)\n",
			st.SharedLoads, st.Switches, st.StaticGrouping())
		p = g
	}

	if !*run {
		fmt.Print(asm.Format(p))
		return
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtcc:", err)
	os.Exit(1)
}
