// Package apps is the registry of the paper's seven benchmark
// applications (Table 1), instantiated at a chosen problem scale,
// plus three irregular-workload kernels (gather, hashjoin, spmv)
// added for the topology experiments.
package apps

import (
	"fmt"
	"sync"

	"mtsim/internal/app"
	"mtsim/internal/apps/blkmat"
	"mtsim/internal/apps/gather"
	"mtsim/internal/apps/hashjoin"
	"mtsim/internal/apps/locus"
	"mtsim/internal/apps/mp3d"
	"mtsim/internal/apps/sieve"
	"mtsim/internal/apps/sor"
	"mtsim/internal/apps/spmv"
	"mtsim/internal/apps/ugray"
	"mtsim/internal/apps/water"
)

// Names lists the paper's applications in Table 1 order. The irregular
// kernels are deliberately excluded: this set feeds the paper-replica
// experiments and their goldens, which must not change as kernels are
// added. Use IrregularNames or AllNames for the extended set.
func Names() []string {
	return []string{"sieve", "blkmat", "sor", "ugray", "water", "locus", "mp3d"}
}

// IrregularNames lists the irregular-workload kernels used by the
// topology experiments.
func IrregularNames() []string {
	return []string{"gather", "hashjoin", "spmv"}
}

// AllNames lists every buildable application: the Table 1 set followed
// by the irregular kernels.
func AllNames() []string {
	return append(Names(), IrregularNames()...)
}

// kind is one registered application: its constructor, the processor
// count at which its paper-style table rows are measured at each scale
// — as in the paper, chosen just before the fixed problem size runs out
// of parallelism; the water entries divide the molecule count evenly
// (49, 125, 343), which its static load balancing rewards (§3.2) — and
// the one shared instance per scale that New hands out.
type kind struct {
	build      func(app.Scale) *app.App
	tableProcs [3]int
	shared     [3]struct {
		once sync.Once
		app  *app.App
	}
}

// kinds is the registry New resolves names against.
var kinds = map[string]*kind{
	"sieve":    {build: func(s app.Scale) *app.App { return sieve.New(sieve.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 16}},
	"blkmat":   {build: func(s app.Scale) *app.App { return blkmat.New(blkmat.ParamsFor(s)) }, tableProcs: [3]int{6, 16, 16}},
	"sor":      {build: func(s app.Scale) *app.App { return sor.New(sor.ParamsFor(s)) }, tableProcs: [3]int{4, 8, 16}},
	"ugray":    {build: func(s app.Scale) *app.App { return ugray.New(ugray.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 16}},
	"water":    {build: func(s app.Scale) *app.App { return water.New(water.ParamsFor(s)) }, tableProcs: [3]int{7, 7, 49}},
	"locus":    {build: func(s app.Scale) *app.App { return locus.New(locus.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 16}},
	"mp3d":     {build: func(s app.Scale) *app.App { return mp3d.New(mp3d.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 32}},
	"gather":   {build: func(s app.Scale) *app.App { return gather.New(gather.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 16}},
	"hashjoin": {build: func(s app.Scale) *app.App { return hashjoin.New(hashjoin.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 16}},
	"spmv":     {build: func(s app.Scale) *app.App { return spmv.New(spmv.ParamsFor(s)) }, tableProcs: [3]int{8, 16, 16}},
}

// New returns the application name at scale s. Each (name, scale) pair
// is built once per process — kernel generation, host reference
// computation and all — and every later call returns that same
// instance, so a caller on a hot path (a server validating each
// request) pays a map lookup, not a kernel build. Concurrent first
// callers wait on one build. The grouped variant is built lazily on the
// instance, hence also at most once per process.
//
// The returned *app.App is shared: callers must treat it and its
// programs as read-only (see app.App).
func New(name string, s app.Scale) (*app.App, error) {
	k, ok := kinds[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, AllNames())
	}
	if s < app.Quick || s > app.Full {
		return nil, fmt.Errorf("apps: unknown scale %v", s)
	}
	a := k.instance(s)
	if a == nil {
		// The first build panicked; it is not retried.
		return nil, fmt.Errorf("apps: building %s at %s scale failed", name, s)
	}
	return a, nil
}

// instance returns the shared instance at scale s, building it on first
// use. It is nil after a build that panicked.
func (k *kind) instance(s app.Scale) *app.App {
	sh := &k.shared[s]
	sh.once.Do(func() { sh.app = k.fresh(s) })
	return sh.app
}

// fresh builds a new, unshared instance at scale s. Only instance
// calls it; tests use it to compare a shared instance with a pristine
// one.
func (k *kind) fresh(s app.Scale) *app.App {
	a := k.build(s)
	a.TableProcs = k.tableProcs[s]
	return a
}

// MustNew is New that panics on an unknown name or scale.
func MustNew(name string, s app.Scale) *app.App {
	a, err := New(name, s)
	if err != nil {
		panic(err)
	}
	return a
}

// All returns the paper's benchmark set at the given scale (shared
// instances, see New).
func All(s app.Scale) []*app.App {
	return build(Names(), s)
}

// AllIrregular returns the irregular kernel set at the given scale
// (shared instances, see New).
func AllIrregular(s app.Scale) []*app.App {
	return build(IrregularNames(), s)
}

func build(names []string, s app.Scale) []*app.App {
	out := make([]*app.App, 0, len(names))
	for _, n := range names {
		out = append(out, MustNew(n, s))
	}
	return out
}
