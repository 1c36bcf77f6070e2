package exp

import (
	"errors"
	"fmt"

	"mtsim/internal/app"
	"mtsim/internal/apps/mp3d"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/net"
	"mtsim/internal/par"
	"mtsim/internal/prog"
	"mtsim/internal/stats"
)

// Ablations returns the extension experiments: sweeps over the design
// parameters the paper fixes (latency, cache line size, switch cost) and
// evaluations of the paper's suggested future work (§6.2 critical-region
// priority scheduling) and relaxed assumptions (§3 latency variance).
// They are not paper artifacts; cmd/experiments runs them with
// -ablations.
func Ablations() []*Experiment {
	return []*Experiment{
		{
			ID:    "ablation-latency",
			Title: "Multithreading level needed vs network latency (explicit-switch)",
			Paper: "extension of §7's DASH comparison: grouping tolerates a latency more than twice DASH's at similar efficiency",
			Run:   AblationLatency,
		},
		{
			ID:    "ablation-linesize",
			Title: "Cache line size vs hit rate and bandwidth (conditional-switch)",
			Paper: "extension: the paper fixes one line size; this sweeps it",
			Run:   AblationLineSize,
		},
		{
			ID:    "ablation-switchcost",
			Title: "Context-switch cost vs efficiency (switch-on-miss pipeline flush)",
			Paper: "quantifies §3's argument for opcode-identified (free) switches",
			Run:   AblationSwitchCost,
		},
		{
			ID:    "ablation-priority",
			Title: "Critical-region priority scheduling (the paper's §6.2 suggestion)",
			Paper: "\"room for improvement by using priority scheduling of threads inside critical regions\"",
			Run:   AblationPriority,
		},
		{
			ID:    "ablation-jitter",
			Title: "Latency variance vs efficiency (relaxing §3's constant-latency assumption)",
			Paper: "the paper notes real networks have large latency variance but models a constant",
			Run:   AblationJitter,
		},
		{
			ID:    "ablation-network",
			Title: "Load-dependent network latency (the paper's §6.1 future work)",
			Paper: "\"simulations using realistic networks are needed to fully explore this issue\"",
			Run:   AblationNetwork,
		},
		{
			ID:    "ablation-topology",
			Title: "Irregular kernels on load-dependent interconnect topologies",
			Paper: "extension of §6.1: per-link FIFO queueing on mesh/fat-tree/dragonfly networks replaces the constant round trip",
			Run:   AblationTopology,
		},
		{
			ID:    "ablation-faults",
			Title: "Fault injection: efficiency under an unreliable, jittery network",
			Paper: "extension: the paper's network never loses a reply; this one drops, delays and duplicates them",
			Run:   AblationFaults,
		},
		{
			ID:    "ablation-mp3dsort",
			Title: "mp3d rewritten for locality (the paper's §6.1 wish)",
			Paper: "\"We would be interested in seeing if this application could be rewritten to improve its locality\"",
			Run:   AblationMP3DSort,
		},
	}
}

// AblationLatency sweeps the round-trip latency and reports the
// multithreading level needed for 70% efficiency under explicit-switch.
// The paper's §7 comparison point: DASH studied mp3d at a ~90-cycle
// latency; explicit-switch matches its efficiency while tolerating more
// than twice that.
func AblationLatency(o *Options) error {
	latencies := []int{50, 100, 200, 400, 800}
	t := &stats.Table{
		Title:  "Ablation: threads needed for 70% efficiency vs latency (explicit-switch)",
		Header: []string{"application (procs)"},
	}
	for _, l := range latencies {
		t.Header = append(t.Header, fmt.Sprintf("%dcyc", l))
	}
	for _, name := range []string{"sor", "water", "mp3d"} {
		a, err := o.App(name)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%s (%d)", a.Name, a.TableProcs)}
		for _, l := range latencies {
			cfg := machine.Config{Procs: a.TableProcs, Model: machine.ExplicitSwitch, Latency: l}
			levels, _, _, err := o.Sess.MTSearchContext(o.Context(), a, cfg, []float64{0.70}, o.MaxMT)
			if err != nil {
				return err
			}
			row = append(row, core.FormatLevels(levels)[0])
		}
		t.AddRow(row...)
	}
	t.AddNote("the level needed grows roughly linearly with latency / mean run-length, as the paper's model predicts")
	o.printf("%s\n", t)
	return nil
}

// AblationLineSize sweeps the cache line size under conditional-switch.
// Longer lines amortize headers for spatially-local codes (sor) but
// waste bandwidth for scattered ones (mp3d) — the paper's §6.1 trade-off
// made explicit.
func AblationLineSize(o *Options) error {
	sizes := []int{1, 2, 4, 8, 16}
	t := &stats.Table{
		Title:  "Ablation: cache line size (cells) vs hit rate and bandwidth (conditional-switch, 6 threads)",
		Header: []string{"application"},
	}
	for _, s := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("hit@%d", s), fmt.Sprintf("b/c@%d", s))
	}
	set, err := o.appsNamed("sor", "mp3d")
	if err != nil {
		return err
	}
	var jobs []core.Job
	for _, a := range set {
		for _, s := range sizes {
			cfg := machine.Config{
				Procs: a.TableProcs, Threads: 6,
				Model: machine.ConditionalSwitch, Latency: o.Latency,
			}
			cfg.Cache.LineCells = s
			cfg.Cache.Lines = 4096 / s // constant capacity
			cfg.Cache.Assoc = 4
			jobs = append(jobs, core.Job{App: a, Cfg: cfg})
		}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	next := cursor(res)
	for _, a := range set {
		row := []string{a.Name}
		for range sizes {
			r := next()
			row = append(row, fmt.Sprintf("%.2f", r.CacheHitRate()), fmt.Sprintf("%.1f", r.BitsPerCycle()))
		}
		t.AddRow(row...)
	}
	t.AddNote("capacity held at 4096 cells; sor gains from longer lines, mp3d's scattered lookups waste them")
	o.printf("%s\n", t)
	return nil
}

// AblationSwitchCost sweeps the pipeline-flush cost of switch-on-miss.
// At zero it matches switch-on-use-miss timing; at realistic costs it
// falls behind — the reason the paper's models identify switches at
// decode (§3).
func AblationSwitchCost(o *Options) error {
	costs := []int{-1, 2, 4, 8, 16} // -1 = explicit zero
	a, err := o.App("mp3d")
	if err != nil {
		return err
	}
	jobs := []core.Job{core.BaselineJob(a)}
	for _, c := range costs {
		jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{
			Procs: a.TableProcs, Threads: 6,
			Model: machine.SwitchOnMiss, Latency: o.Latency, SwitchCost: c,
		}})
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	base := res[0].Cycles
	t := &stats.Table{
		Title:  fmt.Sprintf("Ablation: switch-on-miss pipeline-flush cost (mp3d, %d procs, 6 threads)", a.TableProcs),
		Header: []string{"switch cost", "cycles", "efficiency", "overhead cycles"},
	}
	for i, c := range costs {
		r := res[1+i]
		shown := c
		if c < 0 {
			shown = 0
		}
		t.AddRow(fmt.Sprint(shown), fmt.Sprint(r.Cycles),
			fmt.Sprintf("%.3f", r.Efficiency(base)), fmt.Sprint(r.SwitchOverhead))
	}
	t.AddNote("the opcode-identified models (switch-on-load, explicit-switch) pay none of this")
	o.printf("%s\n", t)
	return nil
}

// AblationNetwork replaces the constant 200-cycle round trip with the
// butterfly congestion model: per-hop queueing that grows with the
// bandwidth the program injects. More threads now both hide latency and
// create it, so the bandwidth-frugal cached model keeps climbing while
// the bandwidth-hungry uncached one saturates — the feedback loop the
// paper's constant-latency simplification cannot show.
func AblationNetwork(o *Options) error {
	threads := []int{2, 4, 8, 12, 16}
	congest := net.CongestionConfig{Enabled: true, ChannelBits: 16}
	t := &stats.Table{
		Title:  "Ablation: load-dependent butterfly network (16-bit channels), efficiency vs threads",
		Header: []string{"application / model"},
	}
	for _, th := range threads {
		t.Header = append(t.Header, fmt.Sprintf("%dt", th))
	}
	t.Header = append(t.Header, "peak-util", "final-lat")
	set, err := o.appsNamed("sor", "mp3d")
	if err != nil {
		return err
	}
	models := []machine.Model{machine.ExplicitSwitch, machine.ConditionalSwitch}
	var jobs []core.Job
	for _, a := range set {
		jobs = append(jobs, core.BaselineJob(a))
		for _, model := range models {
			for _, th := range threads {
				jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{
					Procs: a.TableProcs, Threads: th, Model: model,
					Latency: o.Latency, Congestion: congest,
				}})
			}
		}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	next := cursor(res)
	for _, a := range set {
		base := next().Cycles
		for _, model := range models {
			row := []string{fmt.Sprintf("%s / %s", a.Name, model)}
			var last *machine.Result
			for range threads {
				last = next()
				row = append(row, fmt.Sprintf("%.2f", last.Efficiency(base)))
			}
			row = append(row,
				fmt.Sprintf("%.2f", last.NetPeakUtilization),
				fmt.Sprint(last.NetFinalLatency))
			t.AddRow(row...)
		}
	}
	t.AddNote("adding threads now raises the latency it must hide; the cached model's lower demand keeps the")
	t.AddNote("network fast, while the uncached model saturates it — the trade-off §6.1 predicts")
	o.printf("%s\n", t)
	return nil
}

// AblationTopology crosses the irregular kernels (pointer chase, hash
// join, sparse matrix-vector) with routed interconnect topologies.
// Unlike AblationNetwork's aggregate congestion feedback, each shared
// round trip here is routed hop by hop — dimension-order on the mesh,
// up/down through the fat tree, minimal local-global-local on the
// dragonfly — through per-link FIFO queues, so the scattered dependent
// loads of these kernels pay real distance and real contention. The
// constant row is the paper's fixed round trip, included as the
// baseline the routed rows degrade from.
func AblationTopology(o *Options) error {
	kernels, err := o.KernelApps()
	if err != nil {
		return err
	}
	kinds := make([]net.TopologyKind, 0, len(o.Topologies))
	for _, name := range o.Topologies {
		k, err := net.ParseTopology(name)
		if err != nil {
			return err
		}
		kinds = append(kinds, k)
	}
	threads := []int{2, 4, 8}
	t := &stats.Table{
		Title:  fmt.Sprintf("Ablation: irregular kernels x interconnect topologies (switch-on-load, latency %d), efficiency vs threads", o.Latency),
		Header: []string{"kernel / topology"},
	}
	for _, th := range threads {
		t.Header = append(t.Header, fmt.Sprintf("%dt", th))
	}
	t.Header = append(t.Header, "max-lat", "peak-queue")
	// The topology's node count, hop cost and channel width stay at their
	// Procs-derived defaults (TopologyConfig.WithDefaults).
	var jobs []core.Job
	for _, a := range kernels {
		jobs = append(jobs, core.BaselineJob(a))
		for _, k := range kinds {
			for _, th := range threads {
				jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{
					Procs: a.TableProcs, Threads: th,
					Model: machine.SwitchOnLoad, Latency: o.Latency,
					Topology: net.TopologyConfig{Kind: k},
				}})
			}
		}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	next := cursor(res)
	for _, a := range kernels {
		base := next().Cycles
		for _, k := range kinds {
			row := []string{fmt.Sprintf("%s / %s", a.Name, k)}
			var last *machine.Result
			for range threads {
				last = next()
				row = append(row, fmt.Sprintf("%.3f", last.Efficiency(base)))
			}
			row = append(row, fmt.Sprint(last.TopoMaxLatency), fmt.Sprint(last.TopoPeakQueue))
			t.AddRow(row...)
		}
	}
	t.AddNote("max-lat/peak-queue are at the highest thread level; the constant rows route nothing, so both read 0")
	t.AddNote("finding: more threads still buy efficiency on every topology, but the routed networks tax the")
	t.AddNote("dependent-load kernels with queueing that grows as the extra threads inject more scattered traffic")
	o.printf("%s\n", t)
	return nil
}

// AblationMP3DSort answers the paper's closing wish for mp3d: lay the
// particles out in space-cell order so a thread's particle block touches
// a clustered set of space cells. Same kernel, same instruction stream —
// only the data layout changes — and the cache behaviour improves.
func AblationMP3DSort(o *Options) error {
	params := mp3d.ParamsFor(o.Scale)
	plainApp := mp3d.New(params)
	params.SortParticles = true
	sortedApp := mp3d.New(params)
	const procs = 8

	t := &stats.Table{
		Title:  fmt.Sprintf("Ablation: mp3d particle layout (conditional-switch, %d procs, 6 threads, latency %d)", procs, o.Latency),
		Header: []string{"layout", "cycles", "hit-rate", "b/cyc", "taken switches", "skipped"},
	}
	layouts := []*app.App{plainApp, sortedApp}
	runs := make([]*machine.Result, len(layouts))
	err := o.forEach(len(layouts), func(i int) error {
		a := layouts[i]
		cfg := machine.Config{
			Procs: procs, Threads: 6,
			Model: machine.ConditionalSwitch, Latency: o.Latency,
		}
		g, _, err := a.Grouped()
		if err != nil {
			return err
		}
		runs[i], err = machine.RunChecked(cfg, g, a.Init.Fill, a.Check)
		return err
	})
	if err != nil {
		return err
	}
	for i, a := range layouts {
		rg := runs[i]
		t.AddRow(a.Name, fmt.Sprint(rg.Cycles),
			fmt.Sprintf("%.2f", rg.CacheHitRate()),
			fmt.Sprintf("%.2f", rg.BitsPerCycle()),
			fmt.Sprint(rg.TakenSwitches), fmt.Sprint(rg.SkippedSwitches))
	}
	t.AddNote("identical kernel and instruction stream; only the initial particle ordering differs")
	t.AddNote("finding: the layout helps (hit rate up, bandwidth and switches down) but only modestly —")
	t.AddNote("the particle records themselves stream through the cache once per step, and no layout fixes")
	t.AddNote("that, which rather supports the paper's pessimism about mp3d")
	o.printf("%s\n", t)
	return nil
}

// AblationPriority measures the §6.2 extension on the paper's own
// scenario: on each processor, one thread repeatedly takes a global lock
// (its critical section misses in the cache, so it context switches
// while holding the lock) while the sibling threads run repeated long
// cache-hit bursts whose conditional Switch instructions are all
// skipped. Without a run limit a woken holder waits out the rest of a
// sibling's burst (bounded only by the watchdog) and the serialized lock
// chain stretches; the run limit (the paper's fix) and holder priority
// (its suggested improvement) both bound the wait.
func AblationPriority(o *Options) error {
	const rounds, burst = 12, 300
	t := &stats.Table{
		Title: "Ablation: critical-region scheduling (lock-contention workload, conditional-switch)",
		Header: []string{"procs x threads", "no limit", "run-limit 200", "priority",
			"limit+priority", "limit gain", "priority gain", "combined gain"},
	}
	shapes := []struct{ p, th int }{{2, 4}, {4, 4}, {4, 8}}
	// Four scheduling variants per shape, all direct (unmemoized) machine
	// runs; spread the 12 across the worker pool and render afterwards.
	const variants = 4
	runs := make([]*machine.Result, len(shapes)*variants)
	err := o.forEach(len(runs), func(k int) error {
		shape := shapes[k/variants]
		p := buildLockWorkload(rounds, burst, int64(shape.th), int64(shape.p))
		check := func(sh *machine.Shared) error {
			want := int64(shape.p) * rounds // one locker per processor
			if got := sh.WordAt("cnt", 0); got != want {
				return fmt.Errorf("count = %d, want %d", got, want)
			}
			return nil
		}
		base := machine.Config{
			Procs: shape.p, Threads: shape.th,
			Model: machine.ConditionalSwitch, Latency: o.Latency,
		}
		// The pathology: no forced-switch interval, so a sibling's long
		// cache-hit run strands the lock holder (§6.2).
		noLimit := base
		noLimit.RunLimit = -1
		noLimit.PreemptLimit = 3000
		var cfg machine.Config
		switch k % variants {
		case 0:
			cfg = noLimit
		case 1:
			// The paper's fix: force a switch every 200 busy cycles.
			cfg = base
		case 2:
			// The paper's suggested improvement: priority for lock
			// holders, no run limit needed.
			cfg = noLimit
			cfg.CritPriority = true
		case 3:
			// Both: the paper's run limit plus holder priority.
			cfg = base
			cfg.CritPriority = true
		}
		var err error
		runs[k], err = machine.RunChecked(cfg, p, nil, check)
		return err
	})
	if err != nil {
		return err
	}
	for i, shape := range shapes {
		unlimited, limited, prio, both := runs[i*variants], runs[i*variants+1], runs[i*variants+2], runs[i*variants+3]
		t.AddRow(fmt.Sprintf("%dx%d", shape.p, shape.th),
			fmt.Sprint(unlimited.Cycles), fmt.Sprint(limited.Cycles),
			fmt.Sprint(prio.Cycles), fmt.Sprint(both.Cycles),
			fmt.Sprintf("%.2fx", float64(unlimited.Cycles)/float64(limited.Cycles)),
			fmt.Sprintf("%.2fx", float64(unlimited.Cycles)/float64(prio.Cycles)),
			fmt.Sprintf("%.2fx", float64(unlimited.Cycles)/float64(both.Cycles)))
	}
	t.AddNote("no limit: a sibling's cache-hit run strands the lock holder (the §6.2 pathology; watchdog at 3000)")
	t.AddNote("finding: holder priority alone bounds only the HOLDING time; spin-waiting acquirers are still")
	t.AddNote("stranded behind sibling runs, so the paper's run limit (which yields to every thread) wins, and")
	t.AddNote("priority adds a little more on top of it by resuming the holder first")
	o.printf("%s\n", t)
	return nil
}

// buildLockWorkload builds the §6.2 lock-contention program: the first
// thread of each processor locks `rounds` times; the rest run cache-hit
// bursts until every locker has finished.
func buildLockWorkload(rounds, burst, threadsPerProc, lockers int64) *prog.Program {
	b := prog.NewBuilder("lockwork")
	lk := par.AllocLock(b, "lk")
	b.Shared("pad", 8)
	cnt := b.Shared("cnt", 1)
	b.Shared("pad2", 7)
	fin := b.Shared("fin", 1)
	b.Shared("pad3", 7)
	done := b.Shared("done", 1)
	b.Shared("pad4", 7)
	hot := b.Shared("hot", 2048)

	b.Li(14, threadsPerProc)
	b.Rem(14, 1, 14)
	b.Bnez(14, "worker")
	b.Li(16, 0)
	b.Label("round")
	b.Li(9, lk.Base)
	par.LockAcquire(b, 9, 0, 10, 11)
	b.Li(6, cnt.Base)
	b.LwS(7, 6, 0)
	b.Switch()
	b.Addi(7, 7, 1)
	b.SwS(7, 6, 0)
	par.LockRelease(b, 9, 0, 10, 11)
	b.Addi(16, 16, 1)
	b.Li(11, rounds)
	b.Blt(16, 11, "round")
	b.Li(6, fin.Base)
	b.Li(10, 1)
	b.Faa(7, 6, 0, 10)
	b.Addi(7, 7, 1)
	b.Li(11, lockers)
	b.Bne(7, 11, "locker.end")
	b.Li(6, done.Base)
	b.SwS(10, 6, 0)
	b.Label("locker.end")
	b.Halt()
	b.Label("worker")
	b.Slli(4, 1, 3)
	b.Li(5, hot.Base)
	b.Add(4, 4, 5)
	b.Label("outer")
	b.Li(16, 0)
	b.Label("work")
	b.LwS(8, 4, 0)
	b.LwS(8, 4, 1)
	b.Switch()
	b.Addi(16, 16, 1)
	b.Li(11, burst)
	b.Blt(16, 11, "work")
	b.Li(6, done.Base)
	b.LwS(8, 6, 0)
	b.Switch()
	b.Beqz(8, "outer")
	b.Halt()
	return b.MustBuild()
}

// AblationFaults runs every application through an unreliable network:
// replies are dropped, delayed and duplicated at increasing rates, with
// and without latency jitter, and the machine's recovery protocol
// (timeout, NACK-retry with capped exponential backoff, sequence-number
// dedup) takes the hit in cycles. Faults are drawn from a seeded stream,
// so each cell is deterministic and memoizes like a clean run. A cell
// whose recovery stalls past MaxCycles renders as "stall" instead of
// failing the whole table — the sweep itself is fault-tolerant.
func AblationFaults(o *Options) error {
	rates := []float64{0, o.FaultRate / 5, o.FaultRate}
	jitter := o.FaultJitter
	if jitter == 0 {
		jitter = o.Latency / 2
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Ablation: fault injection (drop/delay/dup at rate r, seed %d), efficiency (conditional-switch, 6 threads)",
			o.FaultSeed),
		Header: []string{"application (procs)"},
	}
	for _, r := range rates {
		t.Header = append(t.Header, fmt.Sprintf("r=%.3f", r), fmt.Sprintf("r=%.3f±j", r))
	}
	t.Header = append(t.Header, "retries@worst")
	set := o.Apps()
	var jobs []core.Job
	for _, a := range set {
		jobs = append(jobs, core.BaselineJob(a))
		for _, r := range rates {
			for _, j := range []int{0, jitter} {
				jobs = append(jobs, core.Job{App: a, Cfg: faultsCfg(o, a, r, j)})
			}
		}
	}
	res, errs := o.batch(jobs)
	k := 0
	for _, a := range set {
		if errs[k] != nil {
			return errs[k]
		}
		base := res[k].Cycles
		k++
		row := []string{fmt.Sprintf("%s (%d)", a.Name, a.TableProcs)}
		var worst *machine.Result
		for range 2 * len(rates) {
			switch err := errs[k]; {
			case err == nil:
				row = append(row, fmt.Sprintf("%.3f", res[k].Efficiency(base)))
				worst = res[k]
			case errors.Is(err, machine.ErrMaxCycles):
				// Fault-induced stall (or livelock): report the cell,
				// keep the sweep going.
				row = append(row, "stall")
			default:
				return err
			}
			k++
		}
		retries := "-"
		if worst != nil && worst.Config.Faults.Enabled {
			retries = fmt.Sprint(worst.Faults.Retries)
		}
		row = append(row, retries)
		t.AddRow(row...)
	}
	t.AddNote("±j adds a deterministic ±half-latency jitter on top of the fault rate")
	t.AddNote("every cell recomputes the correct answer: faults cost cycles (timeouts, backoff), never correctness")
	o.printf("%s\n", t)
	return nil
}

// faultsCfg is the per-cell configuration AblationFaults sweeps. Rate
// drives drops and delays fully and duplicates at half weight;
// protocol constants stay at their latency-derived defaults.
func faultsCfg(o *Options, a *app.App, rate float64, jitter int) machine.Config {
	cfg := machine.Config{
		Procs: a.TableProcs, Threads: 6,
		Model: machine.ConditionalSwitch, Latency: o.Latency,
		LatencyJitter: jitter,
	}
	if rate > 0 {
		cfg.Faults = net.FaultConfig{
			Enabled: true, Seed: o.FaultSeed,
			DropRate: rate, DupRate: rate / 2, DelayRate: rate,
		}
	}
	return cfg
}

// AblationJitter relaxes the constant-latency assumption: a deterministic
// per-access deviation makes delivery unordered, which costs the
// round-robin schedule some of its optimality.
func AblationJitter(o *Options) error {
	fracs := []float64{0, 0.25, 0.5, 0.9}
	t := &stats.Table{
		Title:  fmt.Sprintf("Ablation: latency jitter vs efficiency (explicit-switch, latency %d, 8 threads)", o.Latency),
		Header: []string{"application"},
	}
	for _, f := range fracs {
		t.Header = append(t.Header, fmt.Sprintf("±%.0f%%", 100*f))
	}
	set, err := o.appsNamed("sieve", "sor", "water")
	if err != nil {
		return err
	}
	var jobs []core.Job
	for _, a := range set {
		jobs = append(jobs, core.BaselineJob(a))
		for _, f := range fracs {
			jobs = append(jobs, core.Job{App: a, Cfg: machine.Config{
				Procs: a.TableProcs, Threads: 8,
				Model: machine.ExplicitSwitch, Latency: o.Latency,
				LatencyJitter: int(f * float64(o.Latency)),
			}})
		}
	}
	res, err := o.run(jobs)
	if err != nil {
		return err
	}
	next := cursor(res)
	for _, a := range set {
		base := next().Cycles
		row := []string{a.Name}
		for range fracs {
			row = append(row, fmt.Sprintf("%.3f", next().Efficiency(base)))
		}
		t.AddRow(row...)
	}
	t.AddNote("jitter is cheap when thread coverage has slack (sieve, water) but costs real efficiency when")
	t.AddNote("threads barely cover the latency (sor at 8): unordered replies idle the round-robin schedule")
	o.printf("%s\n", t)
	return nil
}
