package apps

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/machine"
	"mtsim/internal/prog"
)

// TestSharedInstancePerNameAndScale pins the registry's identity
// contract: one instance per (name, scale), distinct across scales.
func TestSharedInstancePerNameAndScale(t *testing.T) {
	for _, name := range AllNames() {
		a, err := New(name, app.Quick)
		if err != nil {
			t.Fatal(err)
		}
		if b := MustNew(name, app.Quick); b != a {
			t.Errorf("%s: second New returned a different instance", name)
		}
	}
	if All(app.Quick)[0] != MustNew("sieve", app.Quick) {
		t.Error("All does not return the shared instances")
	}
	if MustNew("sieve", app.Medium) == MustNew("sieve", app.Quick) {
		t.Error("medium and quick sieve share an instance")
	}
	if _, err := New("sieve", app.Scale(3)); err == nil {
		t.Error("New accepted scale 3")
	}
	if _, err := New("sieve", app.Scale(-1)); err == nil {
		t.Error("New accepted scale -1")
	}
}

// TestSharedConcurrentFirstBuild races many first callers onto one
// unbuilt slot: exactly one build runs and everyone gets its result.
func TestSharedConcurrentFirstBuild(t *testing.T) {
	var builds atomic.Int32
	k := &kind{build: func(s app.Scale) *app.App {
		builds.Add(1)
		return kinds["sieve"].build(s)
	}, tableProcs: [3]int{3, 5, 7}}
	const callers = 16
	got := make([]*app.App, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = k.instance(app.Quick)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	for i, a := range got {
		if a == nil || a != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, a, got[0])
		}
	}
	if got[0].TableProcs != 3 {
		t.Errorf("TableProcs = %d, want the registry's 3", got[0].TableProcs)
	}
}

// TestSharedFailedBuildNotRetried checks that a build that panics
// leaves the slot empty (New reports an error) instead of half-built.
func TestSharedFailedBuildNotRetried(t *testing.T) {
	var builds atomic.Int32
	k := &kind{build: func(app.Scale) *app.App {
		builds.Add(1)
		panic("broken kernel")
	}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first build did not panic")
			}
		}()
		k.instance(app.Quick)
	}()
	if a := k.instance(app.Quick); a != nil {
		t.Errorf("slot holds %p after a failed build", a)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
}

// TestSharedInstanceStaysPristine runs every shared instance under every
// model, several at once, then compares it with a freshly built one:
// no run may alter the programs or the metadata other callers share,
// and the shared instance must still simulate exactly as a fresh one.
func TestSharedInstanceStaysPristine(t *testing.T) {
	models := []machine.Model{
		machine.Ideal, machine.SwitchEveryCycle, machine.SwitchOnLoad,
		machine.SwitchOnUse, machine.ExplicitSwitch, machine.SwitchOnMiss,
		machine.SwitchOnUseMiss, machine.ConditionalSwitch,
	}
	cfg := func(m machine.Model) machine.Config {
		return machine.Config{Procs: 4, Threads: 2, Model: m, Latency: 60}
	}
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			shared := MustNew(name, app.Quick)
			var wg sync.WaitGroup
			errs := make([]error, len(models))
			for i, m := range models {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = shared.Run(cfg(m))
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", models[i], err)
				}
			}

			fresh := kinds[name].fresh(app.Quick)
			if shared.Name != fresh.Name || shared.Description != fresh.Description ||
				shared.Problem != fresh.Problem || shared.TableProcs != fresh.TableProcs {
				t.Errorf("metadata changed: %+v vs fresh %+v",
					[]any{shared.Name, shared.Problem, shared.TableProcs},
					[]any{fresh.Name, fresh.Problem, fresh.TableProcs})
			}
			if !reflect.DeepEqual(shared.Raw, fresh.Raw) {
				t.Error("raw program changed")
			}
			if !reflect.DeepEqual(grouped(t, shared), grouped(t, fresh)) {
				t.Error("grouped program changed")
			}
			for _, m := range []machine.Model{machine.SwitchOnLoad, machine.ConditionalSwitch} {
				got, err := shared.Run(cfg(m))
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(cfg(m))
				if err != nil {
					t.Fatal(err)
				}
				if got.Cycles != want.Cycles || got.Instrs != want.Instrs {
					t.Errorf("%s: shared %d cycles/%d instrs, fresh %d/%d",
						m, got.Cycles, got.Instrs, want.Cycles, want.Instrs)
				}
			}
		})
	}
}

func grouped(t *testing.T, a *app.App) *prog.Program {
	t.Helper()
	p, _, err := a.Grouped()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNewAllocatesNothing holds the hot path to a lookup: resolving an
// already built application must not allocate.
func TestNewAllocatesNothing(t *testing.T) {
	MustNew("sor", app.Quick)
	if n := testing.AllocsPerRun(100, func() { MustNew("sor", app.Quick) }); n != 0 {
		t.Errorf("New allocates %.0f times per call", n)
	}
}

// BenchmarkNew is the per-request cost of resolving an application: a
// lookup of the shared instance.
func BenchmarkNew(b *testing.B) {
	MustNew("hashjoin", app.Quick)
	b.ReportAllocs()
	for b.Loop() {
		MustNew("hashjoin", app.Quick)
	}
}

// BenchmarkBuild is what every New call cost before instances were
// shared: a full kernel build with its host reference computation.
func BenchmarkBuild(b *testing.B) {
	for _, name := range AllNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				kinds[name].fresh(app.Quick)
			}
		})
	}
}
