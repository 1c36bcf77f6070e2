// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (run them all with `go test -bench=. -benchmem`).
// Each benchmark regenerates its artifact at the quick problem scale with
// full result verification; the experiments binary produces the same
// artifacts at medium/full scale.
//
// Additional micro-benchmarks measure the simulator itself: instruction
// throughput, optimizer speed, and the coherent-cache fast paths.
package mtsim_test

import (
	"context"
	"io"
	"testing"

	"mtsim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	benchExperimentJobs(b, id, 0) // 0 = GOMAXPROCS workers
}

func benchExperimentJobs(b *testing.B, id string, jobs int) {
	b.Helper()
	e, err := mtsim.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := []mtsim.ExpOption{mtsim.WithScale(mtsim.Quick)}
	if jobs > 0 {
		opts = append(opts, mtsim.WithJobs(jobs))
	}
	for i := 0; i < b.N; i++ {
		// A fresh session each iteration so runs are not memoized away.
		o := mtsim.NewExp(io.Discard, opts...)
		if err := e.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1_Taxonomy(b *testing.B)               { benchExperiment(b, "figure1") }
func BenchmarkTable1_Applications(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkFigure2_IdealEfficiency(b *testing.B)        { benchExperiment(b, "figure2") }
func BenchmarkTable2_RunLengthsOnLoad(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFigure3_SieveMultithreading(b *testing.B)    { benchExperiment(b, "figure3") }
func BenchmarkTable3_SwitchOnLoadLevels(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkFigure4_GroupingTransform(b *testing.B)      { benchExperiment(b, "figure4") }
func BenchmarkTable4_RunLengthsGrouped(b *testing.B)       { benchExperiment(b, "table4") }
func BenchmarkTable5_ExplicitSwitchLevels(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6_InterBlockWindow(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkTable7_CacheBandwidth(b *testing.B)          { benchExperiment(b, "table7") }
func BenchmarkTable8_ConditionalSwitchLevels(b *testing.B) { benchExperiment(b, "table8") }

// Sequential (-j 1) counterparts of two experiment benchmarks: comparing
// them against the default (GOMAXPROCS-worker) variants above measures
// the parallel engine's speedup on multi-core hosts. On a single-core
// host the pairs time identically.

func BenchmarkTable5_Sequential(b *testing.B)  { benchExperimentJobs(b, "table5", 1) }
func BenchmarkFigure2_Sequential(b *testing.B) { benchExperimentJobs(b, "figure2", 1) }

// Ablation/extension experiments (see DESIGN.md §4 extensions).

func BenchmarkAblationLatencySweep(b *testing.B)  { benchExperiment(b, "ablation-latency") }
func BenchmarkAblationLineSize(b *testing.B)      { benchExperiment(b, "ablation-linesize") }
func BenchmarkAblationSwitchCost(b *testing.B)    { benchExperiment(b, "ablation-switchcost") }
func BenchmarkAblationCritPriority(b *testing.B)  { benchExperiment(b, "ablation-priority") }
func BenchmarkAblationLatencyJitter(b *testing.B) { benchExperiment(b, "ablation-jitter") }
func BenchmarkAblationNetwork(b *testing.B)       { benchExperiment(b, "ablation-network") }
func BenchmarkAblationMP3DSort(b *testing.B)      { benchExperiment(b, "ablation-mp3dsort") }

// BenchmarkSimulatorThroughput measures raw interpreter speed in
// simulated instructions per second on the sor kernel (reported as
// instrs/op via ReportMetric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	a := mtsim.MustNewApp("sor", mtsim.Quick)
	cfg := mtsim.Config{Procs: 4, Threads: 4, Model: mtsim.SwitchOnLoad, Latency: 200}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instrs
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}

// BenchmarkMachineHotLoop measures the event-driven cycle loop itself at
// a high processor count — 64 processors x 4 threads of sieve under
// switch-on-load, result verification off — so event dispatch and thread
// scheduling dominate the profile rather than per-instruction work.
func BenchmarkMachineHotLoop(b *testing.B) {
	a := mtsim.MustNewApp("sieve", mtsim.Quick)
	cfg := mtsim.Config{Procs: 64, Threads: 4, Model: mtsim.SwitchOnLoad, Latency: 200}
	ctx := context.Background()
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mtsim.RunContext(ctx, cfg, a.Raw, a.Init.Fill)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Instrs
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}

// BenchmarkSimulatorCached measures the conditional-switch model, whose
// per-access cache and directory work is the heaviest simulator path.
func BenchmarkSimulatorCached(b *testing.B) {
	a := mtsim.MustNewApp("mp3d", mtsim.Quick)
	cfg := mtsim.Config{Procs: 8, Threads: 4, Model: mtsim.ConditionalSwitch, Latency: 200}
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizer measures the grouping transformation on the largest
// benchmark program.
func BenchmarkOptimizer(b *testing.B) {
	a := mtsim.MustNewApp("water", mtsim.Quick)
	for i := 0; i < b.N; i++ {
		if _, _, err := mtsim.Optimize(a.Raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineRun measures a full verified single-processor run of
// each application (the unit of work behind every efficiency number).
func BenchmarkBaselineRun(b *testing.B) {
	for _, name := range mtsim.AppNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			a := mtsim.MustNewApp(name, mtsim.Quick)
			cfg := mtsim.Config{Procs: 1, Threads: 1, Model: mtsim.Ideal}
			for i := 0; i < b.N; i++ {
				if _, err := a.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
