// Command mttrace runs a benchmark application with the shared-access
// tracer attached and prints the trace analysis: per-symbol access
// profiles, processor sharing, inter-access gaps and hot spots — the
// §3.1 pixie-style methodology behind the paper's characterization of
// its applications.
//
// Usage:
//
//	mttrace -app mp3d -procs 8 -threads 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mtsim"
	"mtsim/internal/machine"
	"mtsim/internal/trace"
)

func main() {
	appName := flag.String("app", "mp3d", "application: "+strings.Join(mtsim.AppNames(), ", "))
	modelName := flag.String("model", "explicit-switch", "model: "+strings.Join(mtsim.ModelNames(), ", "))
	scaleName := flag.String("scale", "quick", "problem scale")
	procs := flag.Int("procs", 8, "processors")
	threads := flag.Int("threads", 4, "threads per processor")
	latency := flag.Int("latency", mtsim.DefaultLatency, "round-trip latency")
	lineCells := flag.Int("line", 4, "locality aggregation line size in cells")
	flag.Parse()

	model, err := mtsim.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	scale, err := mtsim.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	a, err := mtsim.NewApp(*appName, scale)
	if err != nil {
		fatal(err)
	}
	p, err := a.ProgramFor(model)
	if err != nil {
		fatal(err)
	}

	col := trace.New(p, *lineCells)
	cfg := mtsim.Config{Procs: *procs, Threads: *threads, Model: model, Latency: *latency}
	res, err := machine.RunTraced(cfg, p, a.Init.Fill, a.Check, col.Collect)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s under %s: %d cycles, utilization %.3f (result verified)\n\n",
		a.Name, model, res.Cycles, res.Utilization())
	fmt.Print(col.Report())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mttrace:", err)
	os.Exit(1)
}
