package exp

import (
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/stats"
)

// Table1 reproduces the application inventory: program size, problem
// size, and single-processor (zero latency) cycle counts.
func Table1(o *Options) error {
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 1: parallel applications (%s scale)", o.Scale),
		Header: []string{"application", "instrs", "cycles", "shared ld/st", "description & problem size"},
	}
	set := o.Apps()
	jobs := make([]core.Job, len(set))
	for i, a := range set {
		jobs[i] = core.BaselineJob(a)
	}
	base, err := o.run(jobs)
	if err != nil {
		return err
	}
	for i, a := range set {
		ld, st := a.Raw.CountShared()
		t.AddRow(a.Name,
			fmt.Sprint(len(a.Raw.Instrs)),
			formatCycles(base[i].Cycles),
			fmt.Sprintf("%d/%d", ld, st),
			a.Description+" — "+a.Problem)
	}
	t.AddNote("cycles: one ideal (zero latency) processor; instrs: static IR size (the paper's Lines column counted C source)")
	o.printf("%s\n", t)
	return nil
}

func formatCycles(c int64) string {
	switch {
	case c >= 10_000_000:
		return fmt.Sprintf("%.0f M", float64(c)/1e6)
	case c >= 1_000_000:
		return fmt.Sprintf("%.1f M", float64(c)/1e6)
	case c >= 10_000:
		return fmt.Sprintf("%.0f K", float64(c)/1e3)
	default:
		return fmt.Sprint(c)
	}
}

// Table2 reproduces the run-length distributions under switch-on-load:
// percentage of run-lengths per bucket plus the mean (§4.1).
func Table2(o *Options) error {
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 2: switch-on-load run-length distribution (%% of run-lengths, latency %d)", o.Latency),
		Header: append(append([]string{"application"}, bucketHeaders()...), "mean"),
	}
	set := o.Apps()
	jobs := make([]core.Job, len(set))
	for i, a := range set {
		jobs[i] = core.Job{App: a, Cfg: runLengthCfg(o, a, machine.SwitchOnLoad)}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	for i, a := range set {
		t.AddRow(append([]string{a.Name}, res[i].RunLengths.Row()...)...)
	}
	t.AddNote("run-length: busy cycles between taken context switches; every shared load switches")
	o.printf("%s\n", t)
	return nil
}

func bucketHeaders() []string {
	h := make([]string, stats.NumBuckets)
	for i := range h {
		h[i] = stats.BucketLabel(i)
	}
	return h
}

// Table3 reproduces the switch-on-load multithreading requirements: the
// level needed to reach each target efficiency at the application's table
// processor count.
func Table3(o *Options) error {
	return mtTable(o, "Table 3", machine.SwitchOnLoad, nil)
}

// Table4 reproduces the post-grouping run-length distributions plus the
// dynamic grouping factor (loads per taken switch).
func Table4(o *Options) error {
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 4: explicit-switch (grouped) run-length distribution (%% of run-lengths, latency %d)", o.Latency),
		Header: append(append([]string{"application"}, bucketHeaders()...), "mean", "grouping"),
	}
	set := o.Apps()
	jobs := make([]core.Job, len(set))
	for i, a := range set {
		jobs[i] = core.Job{App: a, Cfg: runLengthCfg(o, a, machine.ExplicitSwitch)}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	for i, a := range set {
		row := append([]string{a.Name}, res[i].RunLengths.Row()...)
		row = append(row, fmt.Sprintf("%.2f", res[i].GroupingFactor()))
		t.AddRow(row...)
	}
	t.AddNote("grouping: dynamic shared loads per taken context switch")
	o.printf("%s\n", t)
	return nil
}

// Table5 reproduces the explicit-switch multithreading requirements and
// the code-reorganization penalty (grouped vs raw cycles on the ideal
// machine, §5.1).
func Table5(o *Options) error {
	// The penalty runs bypass the session memo (the grouped program under
	// a raw-code model), so precompute every cell on the worker pool
	// instead of paying for them one at a time inside the render loop.
	set := o.Apps()
	cells := make([]string, len(set))
	err := o.forEach(len(set), func(i int) error {
		a := set[i]
		raw, err := o.Sess.BaselineContext(o.Context(), a)
		if err != nil {
			return err
		}
		g, _, err := a.Grouped()
		if err != nil {
			return err
		}
		grouped, err := machine.RunChecked(core.BaselineJob(a).Cfg, g, a.Init.Fill, a.Check)
		if err != nil {
			return err
		}
		if raw <= 0 {
			// A degenerate baseline makes the penalty undefined; render
			// the paper's blank rather than an Inf/NaN percentage.
			cells[i] = "-"
			return nil
		}
		cells[i] = fmt.Sprintf("%+.1f%%", 100*(float64(grouped.Cycles)/float64(raw)-1))
		return nil
	})
	if err != nil {
		return err
	}
	return mtTable(o, "Table 5", machine.ExplicitSwitch, cells)
}

// Table6 reproduces the §5.2 inter-block grouping estimate for the two
// applications whose intra-block grouping disappointed: the one-line
// 32-word window hit rate, the revised grouping factor, and the revised
// multithreading requirements.
func Table6(o *Options) error {
	t := &stats.Table{
		Title: fmt.Sprintf("Table 6: inter-block grouping estimate (1-line 32-word window, latency %d)", o.Latency),
		Header: append(append([]string{"application", "window-hits", "grouping", "grouping+win"},
			effHeaders()...), "best"),
	}
	for _, name := range []string{"ugray", "locus"} {
		a, err := o.App(name)
		if err != nil {
			return err
		}
		// The application's search follows its two runs, as in a
		// serial render.
		plain := runLengthCfg(o, a, machine.ExplicitSwitch)
		win := plain
		win.GroupWindow = true
		res, err := o.run([]core.Job{{App: a, Cfg: plain}, {App: a, Cfg: win}})
		if err != nil {
			return err
		}
		search := machine.Config{
			Procs: a.TableProcs, Model: machine.ExplicitSwitch,
			Latency: o.Latency, GroupWindow: true,
		}
		levels, best, bestMT, err := o.Sess.MTSearchContext(o.Context(), a, search, core.EffTargets, o.MaxMT)
		if err != nil {
			return err
		}
		row := []string{
			a.Name,
			fmt.Sprintf("%.0f%%", 100*res[1].WindowHitRate()),
			fmt.Sprintf("%.2f", res[0].GroupingFactor()),
			fmt.Sprintf("%.2f", res[1].GroupingFactor()),
		}
		row = append(row, core.FormatLevels(levels)...)
		row = append(row, fmt.Sprintf("%.2f@%d", best, bestMT))
		t.AddRow(row...)
	}
	t.AddNote("a window hit means the load shares a 32-word line with the preceding reference and could have been issued with it")
	o.printf("%s\n", t)
	return nil
}

// Table7 reproduces the §6.1 bandwidth study: per-processor network
// demand in bits per cycle without a cache (explicit-switch) and with one
// (conditional-switch), plus cache hit rates. Spin traffic is excluded,
// as in the paper's footnote 2.
func Table7(o *Options) error {
	const mt = 6
	t := &stats.Table{
		Title:  fmt.Sprintf("Table 7: network bandwidth, %d threads/proc, latency %d (spin traffic excluded)", mt, o.Latency),
		Header: []string{"application", "procs", "uncached b/cyc", "hit-rate", "cached b/cyc", "b/cyc ratio", "traffic ratio", "speedup"},
	}
	set := o.Apps()
	var jobs []core.Job
	for _, a := range set {
		for _, m := range []machine.Model{machine.ExplicitSwitch, machine.ConditionalSwitch} {
			jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{
				Procs: a.TableProcs, Threads: mt,
				Model: m, Latency: o.Latency,
			}})
		}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	for i, a := range set {
		un, ca := res[2*i], res[2*i+1]
		ub, cb := un.BitsPerCycle(), ca.BitsPerCycle()
		red, traf := "-", "-"
		if cb > 0 {
			red = fmt.Sprintf("%.1fx", ub/cb)
		}
		if cbits := ca.Traffic.Bits(); cbits > 0 {
			traf = fmt.Sprintf("%.1fx", float64(un.Traffic.Bits())/float64(cbits))
		}
		speedup := "-"
		if ca.Cycles > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(un.Cycles)/float64(ca.Cycles))
		}
		t.AddRow(a.Name, fmt.Sprint(a.TableProcs),
			fmt.Sprintf("%.2f", ub),
			fmt.Sprintf("%.2f", ca.CacheHitRate()),
			fmt.Sprintf("%.2f", cb),
			red, traf, speedup)
	}
	t.AddNote("bits/cycle per processor, forward + return traffic, incl. headers, acks, invalidations and write-backs")
	t.AddNote("'traffic ratio' compares total bits moved; per-cycle demand can rise simply because the cached run finishes faster")
	o.printf("%s\n", t)
	return nil
}

// Table8 reproduces the conditional-switch multithreading requirements
// (cache + grouped code + 200-cycle run limit).
func Table8(o *Options) error {
	return mtTable(o, "Table 8", machine.ConditionalSwitch, nil)
}

// runLengthCfg is the 4-thread table-processor configuration the
// run-length distribution tables (2, 4 and 6) share.
func runLengthCfg(o *Options, a *app.App, model machine.Model) machine.Config {
	return machine.Config{
		Procs: a.TableProcs, Threads: 4,
		Model: model, Latency: o.Latency,
		CollectRunLengths: true,
	}
}

func effHeaders() []string {
	h := make([]string, len(core.EffTargets))
	for i, e := range core.EffTargets {
		h[i] = fmt.Sprintf("%.0f%%", 100*e)
	}
	return h
}

// mtTable renders one "multithreading level needed to achieve X%
// efficiency" table (the shape of Tables 3, 5 and 8); Table 5 adds its
// per-application penalty column.
func mtTable(o *Options, title string, model machine.Model, penalty []string) error {
	header := append([]string{"application (procs)"}, effHeaders()...)
	header = append(header, "best")
	if penalty != nil {
		header = append(header, "penalty")
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("%s: %s — multithreading level needed for target efficiency (latency %d)", title, model, o.Latency),
		Header: header,
	}
	for i, a := range o.Apps() {
		cfg := machine.Config{Procs: a.TableProcs, Model: model, Latency: o.Latency}
		levels, best, bestMT, err := o.Sess.MTSearchContext(o.Context(), a, cfg, core.EffTargets, o.MaxMT)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%s (%d)", a.Name, a.TableProcs)}
		row = append(row, core.FormatLevels(levels)...)
		row = append(row, fmt.Sprintf("%.2f@%d", best, bestMT))
		if penalty != nil {
			row = append(row, penalty[i])
		}
		t.AddRow(row...)
	}
	t.AddNote("'-' : target never reached with <= %d threads/processor", o.MaxMT)
	o.printf("%s\n", t)
	return nil
}
