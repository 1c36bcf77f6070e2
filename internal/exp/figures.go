package exp

import (
	"fmt"

	"mtsim/internal/core"
	"mtsim/internal/isa"
	"mtsim/internal/machine"
	"mtsim/internal/prog"
	"mtsim/internal/stats"
)

// Figure1 exercises the whole Figure 1 taxonomy: every model runs the
// sieve workload at a small configuration, demonstrating that each policy
// is implemented and behaves sanely (cache models hit, grouped models
// skip switches, and so on).
func Figure1(o *Options) error {
	a, err := o.App("sieve")
	if err != nil {
		return err
	}
	jobs := []core.Job{core.BaselineJob(a)}
	for m := machine.Model(0); int(m) < machine.NumModels; m++ {
		jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{Procs: 4, Threads: 4, Model: m, Latency: o.Latency}})
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	base := res[0].Cycles
	t := &stats.Table{
		Title:  "Figure 1: multithreading model taxonomy (sieve, 4 procs x 4 threads, latency " + fmt.Sprint(o.Latency) + ")",
		Header: []string{"model", "code", "cycles", "efficiency", "switches", "skipped", "hit-rate"},
	}
	for _, r := range res[1:] {
		m := r.Config.Model
		code := "raw"
		if m.UsesGrouping() {
			code = "grouped"
		}
		hit := "-"
		if m.UsesCache() {
			hit = fmt.Sprintf("%.2f", r.CacheHitRate())
		}
		t.AddRow(m.String(), code, fmt.Sprint(r.Cycles),
			fmt.Sprintf("%.3f", r.Efficiency(base)),
			fmt.Sprint(r.TakenSwitches), fmt.Sprint(r.SkippedSwitches), hit)
	}
	t.AddNote("lineage (Figure 1): every-cycle -> on-load -> on-use -> explicit; + cache: on-miss, on-use-miss, conditional")
	o.printf("%s\n", t)
	return nil
}

// Figure2 reproduces the ideal-machine efficiency curves: efficiency vs
// processors with one thread per processor and zero latency. The paper's
// observations to reproduce: efficiency stays high until the fixed-size
// problem is divided too finely, and water is erratic because its static
// load balance depends on divisibility of the molecule count.
func Figure2(o *Options) error {
	maxP := 64
	switch o.Scale {
	case 1:
		maxP = 256
	case 2:
		maxP = 1024
	}
	series := make([]*stats.Series, 0, len(o.Apps()))
	table := &stats.Table{
		Title:  fmt.Sprintf("Figure 2: efficiency on the ideal machine (1 thread/processor, 0 latency, up to %d procs)", maxP),
		Header: []string{"app"},
	}
	var procCounts []int
	for p := 1; p <= maxP; p *= 2 {
		procCounts = append(procCounts, p)
		table.Header = append(table.Header, fmt.Sprint(p))
	}
	ideal := func(p int) machine.Config { return machine.Config{Procs: p, Threads: 1, Model: machine.Ideal} }
	set := o.Apps()
	var jobs []core.Job
	for _, a := range set {
		jobs = append(jobs, core.BaselineJob(a))
		for _, p := range procCounts {
			jobs = append(jobs, core.Job{App: a, Cfg: ideal(p)})
		}
	}
	// The water divisibility effect, explicitly, with the per-processor
	// imbalance that causes it: rendered after the plot.
	water, err := o.App("water")
	if err != nil {
		return err
	}
	tp := water.TableProcs
	if tp > 1 {
		jobs = append(jobs, core.Job{App: water, Cfg: ideal(tp)}, core.Job{App: water, Cfg: ideal(tp + 1)})
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	next := cursor(res)
	var waterBase int64
	for _, a := range set {
		base := next().Cycles
		if a.Name == water.Name {
			waterBase = base
		}
		s := &stats.Series{Name: a.Name}
		row := []string{a.Name}
		for _, p := range procCounts {
			eff := next().Efficiency(base)
			s.Append(float64(p), eff)
			row = append(row, fmt.Sprintf("%.2f", eff))
		}
		series = append(series, s)
		table.AddRow(row...)
	}
	o.printf("%s\n", table)
	o.printf("%s\n", stats.AsciiPlot("Figure 2 (plot): efficiency vs processors, ideal machine", series, 60, 12))
	if tp > 1 {
		div, off := next(), next()
		o.printf("water static balance: %d procs (divides molecules) eff=%.2f imbalance=%.2f"+
			" vs %d procs eff=%.2f imbalance=%.2f\n\n",
			tp, div.Efficiency(waterBase), div.Imbalance(),
			tp+1, off.Efficiency(waterBase), off.Imbalance())
	}
	return nil
}

// Figure3 reproduces the sieve multithreading curves: efficiency vs
// processors at multithreading levels 1..12 under switch-on-load with the
// full 200-cycle latency, plus the ideal curve on top.
func Figure3(o *Options) error {
	a, err := o.App("sieve")
	if err != nil {
		return err
	}
	maxP := 16
	if o.Scale != 0 {
		maxP = 32
	}
	var procCounts []int
	for p := 1; p <= maxP; p *= 2 {
		procCounts = append(procCounts, p)
	}
	levels := []int{1, 2, 4, 6, 8, 10, 12}

	jobs := []core.Job{core.BaselineJob(a)}
	for _, p := range procCounts {
		jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{Procs: p, Threads: 1, Model: machine.Ideal}})
	}
	for _, mt := range levels {
		for _, p := range procCounts {
			jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{
				Procs: p, Threads: mt, Model: machine.SwitchOnLoad, Latency: o.Latency,
			}})
		}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	next := cursor(res)
	base := next().Cycles

	table := &stats.Table{
		Title:  fmt.Sprintf("Figure 3: sieve efficiency vs processors (switch-on-load, latency %d)", o.Latency),
		Header: []string{"threads/proc"},
	}
	for _, p := range procCounts {
		table.Header = append(table.Header, fmt.Sprintf("%dp", p))
	}
	series := []*stats.Series{}

	ideal := &stats.Series{Name: "ideal"}
	row := []string{"ideal"}
	for _, p := range procCounts {
		eff := next().Efficiency(base)
		ideal.Append(float64(p), eff)
		row = append(row, fmt.Sprintf("%.2f", eff))
	}
	series = append(series, ideal)
	table.AddRow(row...)

	for _, mt := range levels {
		s := &stats.Series{Name: fmt.Sprintf("mt=%d", mt)}
		row := []string{fmt.Sprint(mt)}
		for _, p := range procCounts {
			eff := next().Efficiency(base)
			s.Append(float64(p), eff)
			row = append(row, fmt.Sprintf("%.2f", eff))
		}
		series = append(series, s)
		table.AddRow(row...)
	}
	o.printf("%s\n", table)
	o.printf("%s\n", stats.AsciiPlot("Figure 3 (plot): sieve efficiency vs processors", series, 60, 12))
	return nil
}

// Figure4 shows the grouping transformation on sor's inner loop: the raw
// code issues five shared loads one at a time; the reorganized code
// issues the whole group and then performs a single explicit switch.
func Figure4(o *Options) error {
	a, err := o.App("sor")
	if err != nil {
		return err
	}
	grouped, st, err := a.Grouped()
	if err != nil {
		return err
	}
	o.printf("Figure 4: sor inner loop, before and after grouping\n\n")
	o.printf("(a) original order (context switch on every shared load):\n")
	printRange(o, a.Raw, "pt", "row.done")
	o.printf("\n(b) reorganized with grouping (one explicit switch per group):\n")
	printRange(o, grouped, "pt", "row.done")
	o.printf("\noptimizer: %d shared loads, %d switches inserted, static grouping %.2f\n",
		st.SharedLoads, st.Switches, st.StaticGrouping())
	if g := st.GroupSizes[5]; g > 0 {
		o.printf("the five-load stencil group is formed %d time(s) statically\n", g)
	}
	o.printf("\n")
	return nil
}

// printRange disassembles program instructions between two labels.
func printRange(o *Options, p *prog.Program, from, to string) {
	lo, ok1 := p.Labels[from]
	hi, ok2 := p.Labels[to]
	if !ok1 || !ok2 || lo > hi {
		o.printf("  (labels %q..%q not found)\n", from, to)
		return
	}
	for i := lo; i < hi; i++ {
		marker := "  "
		if p.Instrs[i].Op == isa.Switch {
			marker = "=>"
		}
		o.printf("  %s %4d: %s\n", marker, i, p.Instrs[i])
	}
}
