// Package app defines the interface between the benchmark applications
// (internal/apps/...) and the rest of the system: a built program, its
// host-side initialization and verification, and the lazily-computed
// grouped variant produced by the optimizer.
//
// The seven applications mirror the paper's benchmark set (Table 1). The
// originals were Sequent C programs; ours are IR kernels written to
// reproduce each application's shared-access character — see each
// subpackage's doc comment and DESIGN.md §2 for the substitution
// rationale.
package app

import (
	"context"
	"fmt"
	"sync"

	"mtsim/internal/machine"
	"mtsim/internal/opt"
	"mtsim/internal/prog"
)

// Scale selects a problem size.
type Scale int

const (
	// Quick sizes finish in well under a second per run; used by unit
	// tests and testing.B benchmarks.
	Quick Scale = iota
	// Medium sizes take on the order of seconds per run; the default
	// for the experiment binaries.
	Medium
	// Full approximates the paper's Table 1 problem sizes.
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Medium:
		return "medium"
	case Full:
		return "full"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale resolves a scale name.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("app: unknown scale %q (want quick, medium or full)", name)
}

// App is one benchmark application instance at a fixed problem size.
//
// An App is immutable once built and safe for concurrent use: runs only
// read its programs and call Init and Check on their own machine's
// memory, and the grouped variant is built once under a sync.Once.
// apps.New relies on that to hand one shared instance per application
// and scale to every caller in the process, so no caller may assign to
// its fields or alter its programs.
type App struct {
	// Name is the paper's application name (sieve, blkmat, ...).
	Name string
	// Description is the Table 1 one-liner.
	Description string
	// Problem describes the instantiated problem size.
	Problem string
	// Raw is the program as an ordinary compiler would emit it: shared
	// loads where the source needs them, no Switch instructions. The
	// switch-on-load, switch-on-use, switch-every-cycle and cache-miss
	// models execute this variant.
	Raw *prog.Program
	// Init populates shared memory before the forked phase.
	Init func(*machine.Shared)
	// Check verifies the forked phase's results.
	Check func(*machine.Shared) error
	// TableProcs is the processor count at which the paper-style tables
	// report this application (chosen, as in the paper, just before the
	// fixed problem size runs out of parallelism).
	TableProcs int

	groupOnce sync.Once
	grouped   *prog.Program
	groupStat *opt.Stats
	groupErr  error
}

// Grouped returns the optimizer's load-grouped variant with explicit
// Switch instructions (run by the explicit-switch and conditional-switch
// models), building it on first use.
func (a *App) Grouped() (*prog.Program, *opt.Stats, error) {
	a.groupOnce.Do(func() {
		a.grouped, a.groupStat, a.groupErr = opt.Optimize(a.Raw)
	})
	return a.grouped, a.groupStat, a.groupErr
}

// MustGrouped is Grouped that panics on error.
func (a *App) MustGrouped() (*prog.Program, *opt.Stats) {
	p, st, err := a.Grouped()
	if err != nil {
		panic(fmt.Sprintf("app %s: %v", a.Name, err))
	}
	return p, st
}

// ProgramFor returns the variant model executes: grouped for the
// explicit-switch family, raw for the rest.
func (a *App) ProgramFor(model machine.Model) (*prog.Program, error) {
	if model.UsesGrouping() {
		p, _, err := a.Grouped()
		return p, err
	}
	return a.Raw, nil
}

// Run builds the right program variant for cfg.Model, runs it, and
// verifies the result. It is RunContext with context.Background(); new
// callers should prefer the context form.
func (a *App) Run(cfg machine.Config) (*machine.Result, error) {
	return a.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: a canceled or expired ctx aborts
// the simulation cooperatively (see machine.RunContext) with an error
// wrapping ctx.Err().
func (a *App) RunContext(ctx context.Context, cfg machine.Config) (*machine.Result, error) {
	p, err := a.ProgramFor(cfg.Model)
	if err != nil {
		return nil, err
	}
	res, err := machine.RunCheckedContext(ctx, cfg, p, a.Init, a.Check)
	if err != nil {
		return nil, fmt.Errorf("app %s: %w", a.Name, err)
	}
	return res, nil
}
