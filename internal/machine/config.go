// Package machine implements the multithreaded multiprocessor simulator
// of the paper's §3: P pipelined RISC processors, each holding T thread
// contexts (the "multithreading level"), round-robin thread scheduling,
// a constant-latency ordered network, and the family of context-switch
// models from the paper's Figure 1 taxonomy.
//
// The simulation is cycle-synchronous and deterministic: one global loop
// steps every processor each cycle. Shared-memory *values* update at
// issue time (so every interleaving is linearizable at cycle granularity
// and fetch-and-add is trivially atomic), while *timing* is modelled by
// the round-trip latency: a thread that must wait for outstanding loads
// carries a wake cycle, which under ordered delivery is simply the issue
// cycle of its newest outstanding load plus the latency.
package machine

import (
	"fmt"

	"mtsim/internal/cache"
	"mtsim/internal/net"
)

// Model is a context-switch policy from the paper's Figure 1 taxonomy.
type Model int

const (
	// Ideal is the zero-latency reference machine used for the paper's
	// Figure 2 and as the speedup baseline: shared accesses complete
	// immediately and Switch instructions never switch.
	Ideal Model = iota

	// SwitchEveryCycle rotates threads after every instruction (HEP,
	// MASA). Shared loads still block the issuing thread until the
	// result returns.
	SwitchEveryCycle

	// SwitchOnLoad context switches on every load from shared memory
	// (§4). The issuing thread becomes runnable again when its load
	// returns, one round trip later.
	SwitchOnLoad

	// SwitchOnUse issues split-phase loads without blocking and context
	// switches only when a Use instruction (or any read of a pending
	// register) needs an unreturned value (§2).
	SwitchOnUse

	// ExplicitSwitch is the paper's first contribution (§5): loads issue
	// without blocking and the compiler-inserted Switch instruction
	// waits for the whole preceding group of loads with one switch.
	ExplicitSwitch

	// SwitchOnMiss adds a cache: loads that hit proceed, misses context
	// switch (Weber & Gupta; ALEWIFE). The switch is detected late in
	// the pipeline, so it pays Config.SwitchCost wasted cycles (§2, §3).
	SwitchOnMiss

	// SwitchOnUseMiss combines split-phase loads with a cache: a Use of
	// a value whose load missed switches; hits never do (§2).
	SwitchOnUseMiss

	// ConditionalSwitch is the paper's second contribution (§6): the
	// explicit-switch code runs on a machine with a cache, and the
	// Switch instruction is taken only when a preceding load of its
	// group missed (or the run-limit flag is set).
	ConditionalSwitch

	numModels
)

// NumModels is the number of defined models.
const NumModels = int(numModels)

var modelNames = [numModels]string{
	Ideal:             "ideal",
	SwitchEveryCycle:  "switch-every-cycle",
	SwitchOnLoad:      "switch-on-load",
	SwitchOnUse:       "switch-on-use",
	ExplicitSwitch:    "explicit-switch",
	SwitchOnMiss:      "switch-on-miss",
	SwitchOnUseMiss:   "switch-on-use-miss",
	ConditionalSwitch: "conditional-switch",
}

// String returns the model's name as used in the paper.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel resolves a model name.
func ParseModel(s string) (Model, error) {
	for i, n := range modelNames {
		if n == s {
			return Model(i), nil
		}
	}
	return 0, fmt.Errorf("machine: unknown model %q", s)
}

// ModelNames lists all model names in taxonomy order.
func ModelNames() []string {
	out := make([]string, numModels)
	copy(out, modelNames[:])
	return out
}

// UsesCache reports whether the model requires a shared-data cache.
func (m Model) UsesCache() bool {
	return m == SwitchOnMiss || m == SwitchOnUseMiss || m == ConditionalSwitch
}

// UsesGrouping reports whether the model executes grouped (explicit
// Switch) code; the others run the raw program.
func (m Model) UsesGrouping() bool { return m == ExplicitSwitch || m == ConditionalSwitch }

// DispatchMode selects the machine's execution engine. The compiled
// engine (internal/machine/jit) fuses straight-line runs of
// thread-private instructions into closures and is byte-identical to
// the interpreter in every observable — results, metrics, pause points,
// snapshots, errors — so the choice is a pure speed/debuggability
// trade, exposed mainly for differential testing.
type DispatchMode int

const (
	// DispatchAuto (the default) uses the compiled engine whenever the
	// configuration is eligible: every model except switch-every-cycle
	// (which rotates threads after each instruction, leaving no
	// straight-line runs), with or without CollectMetrics.
	DispatchAuto DispatchMode = iota
	// DispatchCompiled insists on the compiled engine: Validate rejects
	// configurations Auto would silently interpret, and a run that gets
	// no engine fails. Benchmarks and tests use it to fail loudly
	// instead of measuring the wrong thing.
	DispatchCompiled
	// DispatchInterpreted forces the interpreter.
	DispatchInterpreted

	numDispatchModes
)

var dispatchNames = [numDispatchModes]string{
	DispatchAuto:        "auto",
	DispatchCompiled:    "compiled",
	DispatchInterpreted: "interpreted",
}

// String returns the mode's name.
func (d DispatchMode) String() string {
	if int(d) < len(dispatchNames) {
		return dispatchNames[d]
	}
	return fmt.Sprintf("dispatch(%d)", int(d))
}

// ParseDispatchMode resolves a dispatch-mode name.
func ParseDispatchMode(s string) (DispatchMode, error) {
	for i, n := range dispatchNames {
		if n == s {
			return DispatchMode(i), nil
		}
	}
	return 0, fmt.Errorf("machine: unknown dispatch mode %q", s)
}

// Config parameterizes a simulation run.
type Config struct {
	// Procs is the number of processors.
	Procs int
	// Threads is the multithreading level: thread contexts per
	// processor. Total threads = Procs * Threads.
	Threads int
	// Model selects the context-switch policy.
	Model Model
	// Latency is the constant round-trip shared-memory latency in
	// cycles (paper default: 200). Forced to zero for Ideal.
	Latency int
	// SwitchCost is the number of cycles lost on each taken context
	// switch. Zero for the opcode-identified models (switch-on-load,
	// explicit-switch: §3 argues the switch is recognized at decode).
	// Switch-on-miss detects the switch after later instructions have
	// entered the pipeline and must cancel them (§2), so that model
	// defaults to DefaultMissSwitchCost; pass a negative value for an
	// explicit zero.
	SwitchCost int
	// Cache configures the per-processor shared-data cache; required by
	// cache-based models and ignored by the rest.
	Cache cache.Config
	// RunLimit bounds the interval between taken context switches under
	// conditional-switch (§6.2): after RunLimit busy cycles a flag is
	// set and the next Switch is taken regardless of cache hits. Zero
	// means the model default (200 for conditional-switch, off
	// elsewhere); negative disables the limit explicitly.
	RunLimit int
	// PreemptLimit is a starvation watchdog: a thread that executes this
	// many busy cycles without any context switch is preempted (zero
	// cost) so round-robin siblings make progress. Models in which a
	// spinning thread may never switch (ideal, switch-on-miss,
	// switch-on-use-miss with a hot cache) need this to run spin-based
	// synchronization with more than one thread per processor — the
	// §6.2 critical-region starvation problem in its extreme form.
	// Zero means the package default; negative disables preemption.
	PreemptLimit int
	// CritPriority enables the §6.2 extension the paper suggests:
	// threads inside a critical region (bracketed by CritEnter/CritExit,
	// which the lock macros emit) are preferred by the round-robin
	// scheduler, so locks are released sooner under long-run-length
	// models.
	CritPriority bool
	// LatencyJitter adds a deterministic per-access deviation in
	// [-LatencyJitter, +LatencyJitter] cycles to the round trip,
	// modelling network congestion variance (§3 notes real networks
	// have large latency variance; the paper assumes a constant). With
	// jitter, delivery is no longer ordered and round-robin scheduling
	// loses its optimality — the ablation experiments quantify that.
	LatencyJitter int
	// Congestion enables the load-dependent network latency model (the
	// paper's stated future work, §6.1): the round trip responds to the
	// bandwidth the program demands instead of staying constant. When
	// enabled, Latency is ignored in favour of the model's output.
	Congestion net.CongestionConfig
	// Topology replaces the constant round trip with an explicit link
	// graph (2D mesh, fat-tree, or dragonfly) with per-link FIFO
	// contention queues and deterministic routing: each shared access is
	// routed from its processor's node to the address's memory module
	// and back, paying queueing delay on every congested link. The zero
	// value (TopoConstant) is the paper's constant-latency network and
	// leaves the legacy path untouched. Mutually exclusive with
	// Congestion (two load-dependent latency models would fight over
	// the same round trip).
	Topology net.TopologyConfig
	// Faults enables fault injection on shared-memory round trips
	// (drop/duplicate/delay plus degraded latency distributions) and the
	// requester-side recovery protocol: timeout, NACK-retry with capped
	// exponential backoff, sequence-number dedup. Deterministic per
	// (Seed, config), so faulted runs memoize like clean ones. The zero
	// value is the paper's perfect network.
	Faults net.FaultConfig
	// GroupWindow enables the §5.2 inter-block grouping estimate: each
	// thread carries a one-line window of WindowCells cells, and a
	// shared load hitting the window completes with the reference that
	// established it instead of paying a fresh round trip.
	GroupWindow bool
	// WindowCells is the window line size in cells (default 16 cells =
	// the paper's 32 words).
	WindowCells int
	// MaxCycles aborts runs that exceed it (deadlock guard). Zero means
	// the package default.
	MaxCycles int64
	// CollectRunLengths enables the per-switch run-length histogram.
	CollectRunLengths bool
	// CollectMetrics enables the cycle-accounting observability layer
	// (internal/metrics): Result.Metrics receives the per-processor,
	// per-thread state timelines and counters. Off by default; with it
	// off no metrics code runs and results are byte-identical to a
	// build without the layer. It works under either engine: the
	// compiled engine accounts each fused chain with one pair of
	// collector calls.
	CollectMetrics bool
	// CheckInvariants makes the machine verify the coherence protocol's
	// invariants (a dirty line has exactly one copy; the directory
	// matches cache contents) after every coherence action. Meant for
	// tests: the checks cost time proportional to sharer counts.
	CheckInvariants bool
	// DispatchMode selects the execution engine (compiled vs
	// interpreter). The zero value, DispatchAuto, uses the compiled
	// engine whenever the configuration is eligible; results are
	// byte-identical either way.
	DispatchMode DispatchMode
}

// DefaultLatency is the paper's 200-cycle round trip.
const DefaultLatency = 200

// DefaultRunLimit is the paper's 200-cycle forced-switch interval (§6.2).
const DefaultRunLimit = 200

// DefaultPreemptLimit is the default starvation watchdog: long enough to
// be invisible in the statistics, short enough that a spinning thread
// cannot wedge its processor.
const DefaultPreemptLimit = 10000

// DefaultMissSwitchCost is the pipeline-flush penalty of the
// switch-on-miss model: the miss is detected after subsequent
// instructions have started down the pipeline and they must be cancelled
// (§2: "a context switch cost of several cycles because of the wasted
// pipeline slots").
const DefaultMissSwitchCost = 4

// defaultMaxCycles guards against livelocked programs.
const defaultMaxCycles = 4 << 30

// withDefaults returns cfg with zero fields filled in and model-implied
// fields normalized.
func (cfg Config) withDefaults() Config {
	if cfg.Procs == 0 {
		cfg.Procs = 1
	}
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.Latency == 0 && cfg.Model != Ideal {
		cfg.Latency = DefaultLatency
	}
	if cfg.Model == Ideal {
		cfg.Latency = 0
	}
	if cfg.Model.UsesCache() && cfg.Cache == (cache.Config{}) {
		cfg.Cache = cache.DefaultConfig()
	}
	switch {
	case cfg.SwitchCost < 0:
		cfg.SwitchCost = 0
	case cfg.SwitchCost == 0 && cfg.Model == SwitchOnMiss:
		cfg.SwitchCost = DefaultMissSwitchCost
	}
	if cfg.Model == ConditionalSwitch && cfg.RunLimit == 0 {
		cfg.RunLimit = DefaultRunLimit
	}
	if cfg.RunLimit < 0 {
		cfg.RunLimit = 0 // negative = explicitly disabled
	}
	if cfg.PreemptLimit == 0 {
		cfg.PreemptLimit = DefaultPreemptLimit
	}
	if cfg.GroupWindow && cfg.WindowCells == 0 {
		cfg.WindowCells = 16
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = defaultMaxCycles
	}
	cfg.Topology = cfg.Topology.WithDefaults(cfg.Procs)
	cfg.Faults = cfg.Faults.WithDefaults(cfg.Latency)
	return cfg
}

// Effective returns the configuration as the machine actually runs it:
// zero fields defaulted and model-implied fields normalized. Snapshots
// carry the effective form, and resuming layers compare against it to
// detect a snapshot taken under a different configuration.
func (cfg Config) Effective() Config { return cfg.withDefaults() }

// Validate reports configuration errors.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	switch {
	case c.Procs < 1:
		return fmt.Errorf("machine: Procs %d < 1", cfg.Procs)
	case c.Threads < 1:
		return fmt.Errorf("machine: Threads %d < 1", cfg.Threads)
	case c.Model < 0 || c.Model >= numModels:
		return fmt.Errorf("machine: invalid model %d", int(cfg.Model))
	case c.Latency < 0:
		return fmt.Errorf("machine: Latency %d < 0", cfg.Latency)
	case c.SwitchCost < 0:
		return fmt.Errorf("machine: SwitchCost %d < 0", cfg.SwitchCost)
	case c.RunLimit < 0:
		return fmt.Errorf("machine: RunLimit %d < 0", cfg.RunLimit)
	case c.LatencyJitter < 0 || (c.LatencyJitter > 0 && c.LatencyJitter >= c.Latency):
		return fmt.Errorf("machine: LatencyJitter %d must be in [0, Latency)", cfg.LatencyJitter)
	case c.DispatchMode < 0 || c.DispatchMode >= numDispatchModes:
		return fmt.Errorf("machine: invalid dispatch mode %d", int(cfg.DispatchMode))
	case c.DispatchMode == DispatchCompiled && c.Model == SwitchEveryCycle:
		return fmt.Errorf("machine: DispatchCompiled does not apply to %s (no straight-line runs to fuse); use DispatchAuto", c.Model)
	}
	if c.Model.UsesCache() {
		if err := c.Cache.Validate(); err != nil {
			return err
		}
	}
	if err := c.Congestion.Validate(); err != nil {
		return err
	}
	if c.Congestion.Enabled && c.Model == Ideal {
		return fmt.Errorf("machine: the congestion model does not apply to the ideal (zero latency) machine")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Topology.Enabled() {
		if c.Model == Ideal {
			return fmt.Errorf("machine: the topology model does not apply to the ideal (zero latency) machine")
		}
		if c.Congestion.Enabled {
			return fmt.Errorf("machine: Topology and Congestion are mutually exclusive (both replace the constant round trip)")
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults.Enabled && c.Model == Ideal {
		return fmt.Errorf("machine: fault injection does not apply to the ideal (zero latency) machine")
	}
	if c.GroupWindow {
		if c.Model != ExplicitSwitch {
			return fmt.Errorf("machine: GroupWindow applies only to the explicit-switch model (got %s)", c.Model)
		}
		if c.WindowCells&(c.WindowCells-1) != 0 || c.WindowCells <= 0 {
			return fmt.Errorf("machine: WindowCells %d must be a positive power of two", cfg.WindowCells)
		}
	}
	return nil
}
