// Package mtsim is a library-level reproduction of Boothe & Ranade,
// "Improved Multithreading Techniques for Hiding Communication Latency in
// Multiprocessors" (ISCA 1992).
//
// It provides:
//
//   - a cycle-level simulator of a multithreaded shared-memory
//     multiprocessor with the paper's full Figure 1 taxonomy of
//     context-switch models (switch-every-cycle, switch-on-load,
//     switch-on-use, explicit-switch, switch-on-miss, switch-on-use-miss,
//     conditional-switch, plus the zero-latency ideal reference machine);
//   - the paper's compiler optimization: basic-block dependency analysis
//     that groups independent shared loads and inserts explicit context
//     switch instructions (§5);
//   - the seven benchmark applications of Table 1 as IR kernels with
//     host-verified results; and
//   - generators that regenerate every table and figure of the paper's
//     evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	a := mtsim.MustNewApp("sor", mtsim.Quick)
//	res, err := a.Run(mtsim.Config{
//	    Procs: 8, Threads: 4,
//	    Model: mtsim.ExplicitSwitch, Latency: 200,
//	})
//	fmt.Println(res.Summary())
//
// Custom programs are written against the prog.Builder assembler-style
// API; see examples/customapp.
package mtsim

import (
	"context"
	"io"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/exp"
	"mtsim/internal/machine"
	"mtsim/internal/metrics"
	"mtsim/internal/mtc"
	"mtsim/internal/net"
	"mtsim/internal/opt"
	"mtsim/internal/par"
	"mtsim/internal/prog"
)

// Core simulation types.
type (
	// Config parameterizes a simulation run.
	Config = machine.Config
	// Result reports one run's measurements.
	Result = machine.Result
	// Model is a context-switch policy.
	Model = machine.Model
	// DispatchMode selects the execution engine (compiled closures vs
	// the interpreter); the two are byte-identical in every observable.
	DispatchMode = machine.DispatchMode
	// Shared is the host view of simulated shared memory.
	Shared = machine.Shared
	// Image is a program's initial shared memory, built once and
	// content-hashed; snapshots encode shared memory against it.
	Image = machine.Image
	// App is one benchmark application instance.
	App = app.App
	// Scale selects problem sizes.
	Scale = app.Scale
	// Program is an executable simulated program.
	Program = prog.Program
	// Builder assembles custom Programs.
	Builder = prog.Builder
	// OptStats reports what the grouping optimizer did.
	OptStats = opt.Stats
	// Experiment is one regenerable paper table or figure.
	Experiment = exp.Experiment
	// ExpOptions configures experiment generation.
	ExpOptions = exp.Options
	// Session memoizes runs and baselines across measurements. It is
	// safe for concurrent use: simultaneous Run calls on the same
	// configuration are deduplicated singleflight-style and share one
	// result, and Session.Workers sizes its worker pools. Every
	// measurement has a context-first form — Session.RunContext,
	// Session.RunBatchContext, Session.MTSearchContext,
	// Session.BaselineContext, Session.EfficiencyContext — whose
	// cancellation aborts in-flight simulations cooperatively with
	// job-aligned partial results; the plain names run under
	// context.Background().
	Session = core.Session
	// ExpOption configures experiment generation functionally; see
	// NewExp and the With* options.
	ExpOption = exp.Option
	// RunJob names one (application, configuration) simulation for
	// Session.RunBatch.
	RunJob = core.Job
	// Sym names a region of simulated memory.
	Sym = prog.Sym
	// FaultConfig parameterizes fault injection on shared-memory round
	// trips (Config.Faults): drop/duplicate/delay rates, degraded latency
	// distributions, and the recovery protocol's timeout/backoff
	// constants. Deterministic per (Seed, config).
	FaultConfig = net.FaultConfig
	// FaultStats reports what a faulted run injected and recovered
	// (Result.Faults).
	FaultStats = net.FaultStats
	// DelayDist selects a degraded round-trip distribution.
	DelayDist = net.DelayDist
	// TopologyConfig selects a load-dependent interconnect topology for
	// Config.Topology (constant, mesh, fattree, dragonfly). The zero
	// value keeps the paper's constant round trip.
	TopologyConfig = net.TopologyConfig
	// TopologyKind names one of the interconnect topologies.
	TopologyKind = net.TopologyKind
	// BatchError aggregates per-job failures from Session.RunBatch while
	// the healthy jobs' results are still returned.
	BatchError = core.BatchError
	// PanicError is a worker panic recovered into a structured per-job
	// error.
	PanicError = core.PanicError
	// RunMetrics is the cycle-accounting observability record of one run
	// (Result.Metrics, filled when Config.CollectMetrics is set): exact
	// per-processor, per-thread state timelines plus event counters.
	RunMetrics = metrics.RunMetrics
	// BatchMetrics aggregates RunMetrics across a session's simulations
	// (Session.Metrics, filled when Session.CollectMetrics is set).
	BatchMetrics = metrics.BatchMetrics
	// StateCycles is the six-state cycle breakdown of one timeline.
	StateCycles = metrics.StateCycles
	// Machine is a pausable simulation handle: run it in cycle-budget
	// slices with RunUntil, Snapshot the paused state to versioned
	// bytes, and RestoreMachine it later (even in another process) —
	// a paused-and-resumed run is byte-identical to an uninterrupted
	// one, Result.Metrics included.
	Machine = machine.Machine
	// CheckpointConfig controls Session.RunCheckpointedContext:
	// checkpoint interval, an optional snapshot to resume from, and the
	// sink receiving each snapshot as it is taken.
	CheckpointConfig = core.CheckpointConfig
)

// MetricsSchemaVersion identifies the stable JSON layout of RunMetrics
// and BatchMetrics, as emitted by the -metrics flags.
const MetricsSchemaVersion = metrics.SchemaVersion

// SnapshotVersion identifies the machine snapshot encoding produced by
// Machine.Snapshot and accepted by RestoreMachine.
const SnapshotVersion = machine.SnapshotVersion

// NewImage returns the initial shared memory init leaves in p's layout
// (App.Init is an application's), built once on first use.
func NewImage(p *Program, init func(*Shared)) *Image { return machine.NewImage(p, init) }

// NewMachine builds a pausable machine for program p under cfg, its
// shared memory a copy of the optional initial image, positioned at
// cycle 0.
func NewMachine(cfg Config, p *Program, img *Image) (*Machine, error) {
	return machine.NewMachine(cfg, p, img)
}

// RestoreMachine reconstructs a machine from Machine.Snapshot bytes.
// The caller supplies the same program and initial image the snapshot
// was taken from (snapshots carry their fingerprints, not the code or
// the image); a mismatch is an error, as is any corruption or version
// skew.
func RestoreMachine(data []byte, p *Program, img *Image) (*Machine, error) {
	return machine.RestoreMachine(data, p, img)
}

// WriteMetricsJSON marshals a *RunMetrics or *BatchMetrics in the
// stable indented-JSON form of the -metrics flags and golden files.
func WriteMetricsJSON(w io.Writer, v any) error { return metrics.WriteJSON(w, v) }

// WriteMetricsFile writes a session's aggregate metrics as JSON to a
// file path ("-" for stdout).
func WriteMetricsFile(path string, bm *BatchMetrics) error { return exp.WriteMetricsFile(path, bm) }

// WriteMetricsSummary renders an aggregate's state breakdown and engine
// counters in the experiment report's ASCII style.
func WriteMetricsSummary(w io.Writer, bm *BatchMetrics) { exp.WriteMetricsSummary(w, bm) }

// Degraded round-trip distributions for FaultConfig.Dist.
const (
	DistConstant = net.DistConstant
	DistUniform  = net.DistUniform
	DistHotSpot  = net.DistHotSpot
)

// Interconnect topologies for TopologyConfig.Kind.
const (
	TopoConstant  = net.TopoConstant
	TopoMesh      = net.TopoMesh
	TopoFatTree   = net.TopoFatTree
	TopoDragonfly = net.TopoDragonfly
)

// TopologyNames lists the interconnect topology names.
func TopologyNames() []string { return net.TopologyNames() }

// ParseTopology resolves a topology name like "mesh".
func ParseTopology(s string) (TopologyKind, error) { return net.ParseTopology(s) }

// Sentinel errors of the simulator's watchdog.
var (
	// ErrMaxCycles marks a run that exceeded Config.MaxCycles — almost
	// always a livelocked spin loop.
	ErrMaxCycles = machine.ErrMaxCycles
	// ErrFaultStall marks a MaxCycles overrun during active fault
	// recovery (wraps ErrMaxCycles).
	ErrFaultStall = machine.ErrFaultStall
)

// Context-switch models (the paper's Figure 1 taxonomy).
const (
	Ideal             = machine.Ideal
	SwitchEveryCycle  = machine.SwitchEveryCycle
	SwitchOnLoad      = machine.SwitchOnLoad
	SwitchOnUse       = machine.SwitchOnUse
	ExplicitSwitch    = machine.ExplicitSwitch
	SwitchOnMiss      = machine.SwitchOnMiss
	SwitchOnUseMiss   = machine.SwitchOnUseMiss
	ConditionalSwitch = machine.ConditionalSwitch
)

// Problem scales.
const (
	Quick  = app.Quick
	Medium = app.Medium
	Full   = app.Full
)

// Dispatch modes (Config.DispatchMode).
const (
	DispatchAuto        = machine.DispatchAuto
	DispatchCompiled    = machine.DispatchCompiled
	DispatchInterpreted = machine.DispatchInterpreted
)

// ParseDispatchMode resolves a dispatch-mode name like "interpreted".
func ParseDispatchMode(s string) (DispatchMode, error) { return machine.ParseDispatchMode(s) }

// DefaultLatency is the paper's 200-cycle round trip.
const DefaultLatency = machine.DefaultLatency

// EffTargets are the efficiency levels the paper's tables report
// multithreading requirements for.
var EffTargets = core.EffTargets

// ParseModel resolves a model name like "explicit-switch".
func ParseModel(s string) (Model, error) { return machine.ParseModel(s) }

// ModelNames lists the models in taxonomy order.
func ModelNames() []string { return machine.ModelNames() }

// ParseScale resolves "quick", "medium" or "full".
func ParseScale(s string) (Scale, error) { return app.ParseScale(s) }

// AppNames lists the benchmark applications in Table 1 order.
func AppNames() []string { return apps.Names() }

// IrregularAppNames lists the irregular-workload kernels added for the
// topology experiments.
func IrregularAppNames() []string { return apps.IrregularNames() }

// AllAppNames lists every buildable application: the Table 1 set plus
// the irregular kernels.
func AllAppNames() []string { return apps.AllNames() }

// NewApp returns one benchmark application at a scale. Each application
// is built once per process and shared by every caller, so the result
// must be treated as read-only.
func NewApp(name string, s Scale) (*App, error) { return apps.New(name, s) }

// MustNewApp is NewApp that panics on an unknown name or scale.
func MustNewApp(name string, s Scale) *App { return apps.MustNew(name, s) }

// AllApps returns the paper's benchmark set (shared instances, see
// NewApp).
func AllApps(s Scale) []*App { return apps.All(s) }

// RunContext simulates program p under cfg with optional shared-memory
// init. A canceled or expired ctx aborts the run cooperatively (the
// event loop polls its context, amortized over the simulation's hot
// path) with an error wrapping ctx.Err(); a run that completes is
// byte-identical to one under context.Background().
func RunContext(ctx context.Context, cfg Config, p *Program, init func(*Shared)) (*Result, error) {
	return machine.RunContext(ctx, cfg, p, init)
}

// RunCheckedContext is RunContext plus a result verification callback.
func RunCheckedContext(ctx context.Context, cfg Config, p *Program, init func(*Shared), check func(*Shared) error) (*Result, error) {
	return machine.RunCheckedContext(ctx, cfg, p, init, check)
}

// NewProgram returns a builder for a custom program.
func NewProgram(name string) *Builder { return prog.NewBuilder(name) }

// Optimize applies the paper's shared-load grouping transformation.
func Optimize(p *Program) (*Program, *OptStats, error) { return opt.Optimize(p) }

// CompileMTC compiles MTC kernel-language source (see internal/mtc) into
// a program, completing the paper's compiler pipeline: naive code
// generation followed by Optimize's grouping pass.
func CompileMTC(name, src string) (*Program, error) { return mtc.Compile(name, src) }

// NewSession returns a measurement session (cached baselines/results).
func NewSession() *Session { return core.NewSession() }

// Experiments returns the paper's tables and figures in order.
func Experiments() []*Experiment { return exp.All() }

// AblationExperiments returns the extension experiments: parameter sweeps
// beyond the paper plus its §6.2 priority-scheduling suggestion.
func AblationExperiments() []*Experiment { return exp.Ablations() }

// WriteExperimentReport regenerates every experiment and writes the
// EXPERIMENTS.md-style paper-vs-measured markdown report.
func WriteExperimentReport(o *ExpOptions, w io.Writer) error { return exp.WriteReport(o, w) }

// ExperimentByID resolves e.g. "table5" or "figure2".
func ExperimentByID(id string) (*Experiment, error) { return exp.ByID(id) }

// NewExp returns experiment options writing to out, configured by
// functional options:
//
//	o := mtsim.NewExp(os.Stdout,
//	    mtsim.WithScale(mtsim.Medium),
//	    mtsim.WithJobs(4),
//	    mtsim.WithContext(ctx))
//
// Defaults: Quick scale, the paper's 200-cycle latency, GOMAXPROCS
// worker goroutines. Output is byte-identical at any worker width.
func NewExp(out io.Writer, opts ...ExpOption) *ExpOptions { return exp.New(out, opts...) }

// Functional options for NewExp.
var (
	// WithScale selects the problem scale (and its default search depth).
	WithScale = exp.WithScale
	// WithLatency overrides the simulated round-trip latency.
	WithLatency = exp.WithLatency
	// WithMaxMT overrides the multithreading-search depth.
	WithMaxMT = exp.WithMaxMT
	// WithJobs sets the rendering/simulation worker width (1 = serial).
	WithJobs = exp.WithJobs
	// WithMetrics toggles cycle-accounting collection on the session.
	WithMetrics = exp.WithMetrics
	// WithContext threads a context through every simulation the
	// experiments run: cancellation aborts rendering cooperatively.
	WithContext = exp.WithContext
	// WithKernels selects the irregular kernels the topology ablation
	// sweeps.
	WithKernels = exp.WithKernels
	// WithTopologies selects the interconnect topologies the topology
	// ablation sweeps.
	WithTopologies = exp.WithTopologies
	// WithFaults enables fault injection at a drop/delay rate with
	// deterministic seed and latency jitter.
	WithFaults = exp.WithFaults
)

// RenderExperiments runs the experiments — concurrently up to the
// session's worker width, o.Sess.Width() — each into its own buffer,
// returning outputs and wall times in input order, byte-identical to a
// sequential run.
func RenderExperiments(o *ExpOptions, exps []*Experiment) ([]string, []time.Duration, error) {
	return exp.Rendered(o, exps)
}

// Synchronization macros (Fetch-and-Add based, as in the paper's §3; the
// spin probes they emit are excluded from bandwidth statistics).

// AllocLock reserves a ticket lock in shared memory.
func AllocLock(b *Builder, name string) Sym { return par.AllocLock(b, name) }

// LockAcquire emits a ticket-lock acquire on rBase+off, clobbering s1/s2.
func LockAcquire(b *Builder, rBase uint8, off int64, s1, s2 uint8) {
	par.LockAcquire(b, rBase, off, s1, s2)
}

// LockRelease emits a ticket-lock release, clobbering s1/s2.
func LockRelease(b *Builder, rBase uint8, off int64, s1, s2 uint8) {
	par.LockRelease(b, rBase, off, s1, s2)
}

// AllocBarrier reserves a sense-reversing barrier in shared memory.
func AllocBarrier(b *Builder, name string) Sym { return par.AllocBarrier(b, name) }

// Barrier emits a barrier over all threads; rSense must be a register
// dedicated to the barrier's local sense (starting at 0); s1/s2 are
// clobbered.
func Barrier(b *Builder, rBase uint8, off int64, rSense, s1, s2 uint8) {
	par.Barrier(b, rBase, off, rSense, s1, s2)
}

// SelfSchedule emits the Fetch-and-Add work-claiming idiom: rNext
// receives the first index of the next chunk.
func SelfSchedule(b *Builder, rBase uint8, off int64, chunk int64, rNext, s1 uint8) {
	par.SelfSchedule(b, rBase, off, chunk, rNext, s1)
}

// Thread-identity register conventions (initialized by the machine when
// a thread starts).
const (
	RegZero    = 0 // hard-wired zero
	RegTid     = 1 // global thread id
	RegThreads = 2 // total thread count
	RegProc    = 3 // processor id
)
