// Package exp regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each generator
// prints a paper-style ASCII table or plot; absolute numbers come from
// our kernels on our simulator, so the point of comparison with the paper
// is the *shape*: who wins, by what rough factor, and where the
// crossovers fall. EXPERIMENTS.md records that comparison.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/net"
)

// Options configures a generator run. The zero value is not usable; call
// New.
type Options struct {
	// Scale selects problem sizes.
	Scale app.Scale
	// Latency is the network round trip (paper: 200).
	Latency int
	// MaxMT caps the multithreading-level searches.
	MaxMT int
	// Out receives the rendered tables.
	Out io.Writer
	// Sess memoizes runs across experiments. Its worker width
	// (Sess.Width) also bounds the experiments Rendered renders at once
	// and the direct runs a generator spreads with forEach.
	Sess *core.Session
	// FaultSeed seeds the robustness ablation's deterministic fault
	// streams (cmd/experiments -seed).
	FaultSeed uint64
	// FaultRate is the harshest drop/delay probability the robustness
	// ablation sweeps up to (cmd/experiments -faults).
	FaultRate float64
	// FaultJitter is the latency jitter, in cycles, of the ablation's
	// degraded-network column; zero means half the round trip
	// (cmd/experiments -jitter).
	FaultJitter int
	// Kernels names the irregular-workload kernels the topology
	// ablation sweeps (cmd/experiments -kernels). Default: all of
	// apps.IrregularNames.
	Kernels []string
	// Topologies names the interconnect topologies the topology
	// ablation sweeps (cmd/experiments -topologies). Default: every
	// net.TopologyNames entry, constant first.
	Topologies []string

	// ctx bounds every simulation and render issued through these
	// options (WithContext); nil means context.Background().
	ctx context.Context
}

// Option configures an Options value at construction (New). Options are
// applied in order, so later ones win.
type Option func(*Options)

// WithScale selects the problem scale (default Quick). The
// multithreading-search cap adjusts with it unless WithMaxMT overrides.
func WithScale(s app.Scale) Option {
	return func(o *Options) {
		o.Scale = s
		o.MaxMT = defaultMaxMT(s)
	}
}

// WithLatency sets the network round trip in cycles (default: the
// paper's 200).
func WithLatency(cycles int) Option {
	return func(o *Options) { o.Latency = cycles }
}

// WithMaxMT caps the multithreading-level searches.
func WithMaxMT(n int) Option {
	return func(o *Options) { o.MaxMT = n }
}

// WithJobs sets the session's worker width, Sess.Workers (1 disables
// parallelism; 0 or negative means GOMAXPROCS). A later WithSession
// brings its own width. Output is byte-identical at every width.
func WithJobs(n int) Option {
	return func(o *Options) { o.Sess.Workers = n }
}

// WithMetrics turns the session's cycle-accounting collection on or off
// (see core.Session.CollectMetrics); the aggregate is read back with
// SessionMetrics.
func WithMetrics(on bool) Option {
	return func(o *Options) { o.Sess.CollectMetrics = on }
}

// WithContext bounds every simulation and render issued through the
// options: cancellation stops scheduling new work and aborts in-flight
// simulations cooperatively. A completed render is byte-identical to an
// unbounded one.
func WithContext(ctx context.Context) Option {
	return func(o *Options) { o.ctx = ctx }
}

// WithSession substitutes a caller-owned session, sharing its memo (and
// its Workers/CollectMetrics settings, so the options fan out exactly
// as wide as the session) across several options values — the serving
// layer uses this to reuse one session cache across requests.
func WithSession(s *core.Session) Option {
	return func(o *Options) { o.Sess = s }
}

// WithFaults parameterizes the robustness ablation: the harshest
// drop/delay rate swept to, the degraded column's latency jitter in
// cycles (0 = half the round trip), and the deterministic stream seed.
func WithFaults(rate float64, jitter int, seed uint64) Option {
	return func(o *Options) {
		o.FaultRate = rate
		o.FaultJitter = jitter
		o.FaultSeed = seed
	}
}

// WithKernels selects the irregular kernels the topology ablation
// sweeps. Names are validated by Options.Validate against the full
// application registry.
func WithKernels(names ...string) Option {
	return func(o *Options) { o.Kernels = names }
}

// WithTopologies selects the interconnect topologies the topology
// ablation sweeps. Names are validated by Options.Validate.
func WithTopologies(names ...string) Option {
	return func(o *Options) { o.Topologies = names }
}

// defaultMaxMT is the search cap a scale defaults to.
func defaultMaxMT(s app.Scale) int {
	if s == app.Quick {
		return 24
	}
	return 48
}

// New returns options writing to out, configured by opts over the paper
// defaults (Quick scale, 200-cycle latency, GOMAXPROCS workers).
func New(out io.Writer, opts ...Option) *Options {
	o := &Options{
		Scale:      app.Quick,
		Latency:    machine.DefaultLatency,
		MaxMT:      defaultMaxMT(app.Quick),
		Out:        out,
		Sess:       core.NewSession(),
		FaultSeed:  1,
		FaultRate:  0.05,
		Kernels:    apps.IrregularNames(),
		Topologies: net.TopologyNames(),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Context returns the context bounding this options value's work:
// the WithContext value, or context.Background().
func (o *Options) Context() context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	return context.Background()
}

// Validate reports option errors with flag-quality messages. It is the
// one validation path shared by cmd/experiments and the serving layer's
// experiment endpoint, mirroring how machine.Config.Validate serves
// both the library and the server's run decoder.
func (o *Options) Validate() error {
	switch {
	case o.Latency < 1:
		return fmt.Errorf("exp: latency %d: the experiments need a positive round trip", o.Latency)
	case o.MaxMT < 1:
		return fmt.Errorf("exp: maxmt %d: the search cap must be positive", o.MaxMT)
	case o.FaultRate < 0 || o.FaultRate >= 1:
		return fmt.Errorf("exp: fault rate %v: must be in [0, 1)", o.FaultRate)
	case o.FaultJitter < 0:
		return fmt.Errorf("exp: jitter %d: cannot be negative", o.FaultJitter)
	case o.FaultJitter > 0 && o.FaultJitter >= o.Latency:
		return fmt.Errorf("exp: jitter %d: must stay below the round trip (latency %d)", o.FaultJitter, o.Latency)
	case len(o.Kernels) == 0:
		return fmt.Errorf("exp: no kernels selected (have %v)", apps.AllNames())
	case len(o.Topologies) == 0:
		return fmt.Errorf("exp: no topologies selected (have %v)", net.TopologyNames())
	}
	// Name checks up front, with the same flag-quality messages the CLI
	// and the serving layer's experiment decoder surface: a typo fails
	// in microseconds, not after the sweep reaches the bad cell.
	valid := make(map[string]bool)
	for _, n := range apps.AllNames() {
		valid[n] = true
	}
	for _, n := range o.Kernels {
		if !valid[n] {
			return fmt.Errorf("exp: unknown kernel %q (have %v)", n, apps.AllNames())
		}
	}
	for _, n := range o.Topologies {
		if _, err := net.ParseTopology(n); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return nil
}

// batch simulates a generator's job list as one session batch and
// returns the results and errors in job order.
func (o *Options) batch(jobs []core.Job) ([]*machine.Result, []error) {
	res, err := o.Sess.RunBatchContext(o.Context(), jobs)
	var be *core.BatchError
	if errors.As(err, &be) {
		return res, be.Errs
	}
	return res, make([]error, len(jobs))
}

// run is batch for a generator that fails on any job's error.
// Generators list their jobs in render order, so the error returned is
// the first failing job's: the one a serial render would have stopped
// at.
func (o *Options) run(jobs []core.Job) ([]*machine.Result, error) {
	res, errs := o.batch(jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cursor hands out a batch's results in job order, to a render loop
// that walks the nesting the job list was built in.
func cursor(res []*machine.Result) func() *machine.Result {
	return func() *machine.Result {
		r := res[0]
		res = res[1:]
		return r
	}
}

// forEach calls f(0..n-1) on min(Sess.Width(), n) workers and returns the
// lowest-index error, mirroring where a sequential loop would have
// stopped. Generators use it for work that bypasses the session memo
// (direct machine runs). A canceled options context stops new items and
// fails the undone ones with ctx.Err(), so the lowest-index error still
// matches where a sequential loop would have stopped.
func (o *Options) forEach(n int, f func(i int) error) error {
	ctx := o.Context()
	w := o.Sess.Width()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rendered runs the given experiments — concurrently when the session's
// width allows — each into its own buffer, and returns the rendered
// outputs and wall times in input order. The outputs are byte-identical
// to running the experiments sequentially: each one owns its buffer,
// and the shared session's singleflight memo returns identical results
// regardless of which experiment simulates a configuration first.
func Rendered(o *Options, exps []*Experiment) ([]string, []time.Duration, error) {
	outs := make([]string, len(exps))
	times := make([]time.Duration, len(exps))
	err := o.forEach(len(exps), func(i int) error {
		start := time.Now()
		var buf strings.Builder
		sub := *o
		sub.Out = &buf
		if err := exps[i].Run(&sub); err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		outs[i] = buf.String()
		times[i] = time.Since(start)
		return nil
	})
	return outs, times, err
}

// Apps returns the benchmark set at the options scale (the process-wide
// shared instances, see apps.New).
func (o *Options) Apps() []*app.App {
	return apps.All(o.Scale)
}

// KernelApps returns the topology ablation's kernel set: the Kernels
// names at the options scale.
func (o *Options) KernelApps() ([]*app.App, error) {
	return o.appsNamed(o.Kernels...)
}

// appsNamed returns the named applications at the options scale, in
// the order given.
func (o *Options) appsNamed(names ...string) ([]*app.App, error) {
	set := make([]*app.App, 0, len(names))
	for _, n := range names {
		a, err := apps.New(n, o.Scale)
		if err != nil {
			return nil, err
		}
		set = append(set, a)
	}
	return set, nil
}

// App returns one application from the set by name.
func (o *Options) App(name string) (*app.App, error) {
	for _, a := range o.Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("exp: application %q not in set", name)
}

func (o *Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the paper artifact id: "table1".."table8", "figure1".."figure4".
	ID string
	// Title summarizes the artifact.
	Title string
	// Paper states what the paper's version of the artifact showed, for
	// shape comparison.
	Paper string
	// Run regenerates it.
	Run func(o *Options) error
}

// All returns the experiments in paper order.
func All() []*Experiment {
	return []*Experiment{
		{
			ID:    "figure1",
			Title: "Evolution of multithreading models (taxonomy smoke test)",
			Paper: "taxonomy diagram: every model implemented and runnable",
			Run:   Figure1,
		},
		{
			ID:    "table1",
			Title: "Parallel applications",
			Paper: "seven applications, 87M-1353M single-processor cycles",
			Run:   Table1,
		},
		{
			ID:    "figure2",
			Title: "Efficiency on the ideal (zero latency) machine",
			Paper: "near-linear speedup until the fixed problem runs out of parallelism; water erratic under static balancing",
			Run:   Figure2,
		},
		{
			ID:    "table2",
			Title: "Run-length distributions under switch-on-load",
			Paper: "sor/locus/mp3d dominated by 1-2 cycle run-lengths; blkmat exceptionally long",
			Run:   Table2,
		},
		{
			ID:    "figure3",
			Title: "sieve under switch-on-load multithreading (latency 200)",
			Paper: "efficiency rises with multithreading level, ~100% by level 12",
			Run:   Figure3,
		},
		{
			ID:    "table3",
			Title: "Switch-on-load: multithreading level needed for target efficiency",
			Paper: "some applications bounded near 60%; short run-lengths force large levels",
			Run:   Table3,
		},
		{
			ID:    "figure4",
			Title: "sor inner loop before and after grouping",
			Paper: "five loads grouped together with one explicit switch",
			Run:   Figure4,
		},
		{
			ID:    "table4",
			Title: "Run-length distributions under explicit-switch (grouped)",
			Paper: "short run-lengths eliminated; grouping factors up to ~5",
			Run:   Table4,
		},
		{
			ID:    "table5",
			Title: "Explicit-switch: multithreading level for target efficiency + reorganization penalty",
			Paper: "70%+ efficiency with <=14 threads for all but locus; penalty a few percent",
			Run:   Table5,
		},
		{
			ID:    "table6",
			Title: "Inter-block grouping estimate (one-line 32-word window)",
			Paper: "ugray 42% window hits (grouping 1.3 -> 1.9); locus 84% (1.05 -> 6.6)",
			Run:   Table6,
		},
		{
			ID:    "table7",
			Title: "Cache hit rates and network bandwidth (bits/cycle)",
			Paper: "hit rates >90% and bandwidth <4 bits/cycle for all but mp3d",
			Run:   Table7,
		},
		{
			ID:    "table8",
			Title: "Conditional-switch: multithreading level for target efficiency",
			Paper: "80%+ efficiency with 6 or fewer threads",
			Run:   Table8,
		},
	}
}

// ByID returns one experiment, searching the paper artifacts and the
// ablation extensions.
func ByID(id string) (*Experiment, error) {
	var ids []string
	for _, set := range [][]*Experiment{All(), Ablations()} {
		for _, e := range set {
			if e.ID == id {
				return e, nil
			}
			ids = append(ids, e.ID)
		}
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}
