package core_test

import (
	"errors"
	"strings"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/prog"
)

// spinApp builds a minimal application that livelocks: its kernel spins
// forever, so any run trips MaxCycles.
func spinApp() *app.App {
	b := prog.NewBuilder("spin")
	b.Shared("x", 1)
	b.Label("loop")
	b.J("loop")
	return &app.App{Name: "spin-forever", Raw: b.MustBuild()}
}

// panicApp builds an application whose host-side Init panics, standing
// in for a buggy kernel generator.
func panicApp() *app.App {
	b := prog.NewBuilder("boom")
	b.Shared("x", 1)
	b.Halt()
	raw := b.MustBuild()
	return &app.App{
		Name: "boom",
		Raw:  raw,
		Init: machine.NewImage(raw, func(*machine.Shared) { panic("init exploded") }),
	}
}

// TestRunBatchPartialResults: one livelocked job must not cost the
// others — every healthy job still returns its result, and the error is
// a job-aligned *BatchError naming the culprit.
func TestRunBatchPartialResults(t *testing.T) {
	s := core.NewSession()
	sieve := apps.MustNew("sieve", app.Quick)
	good := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnLoad}
	bad := machine.Config{Procs: 1, Threads: 1, Model: machine.SwitchOnLoad, MaxCycles: 1000}
	jobs := []core.Job{
		{App: sieve, Cfg: good},
		{App: spinApp(), Cfg: bad},
		{App: sieve, Cfg: machine.Config{Procs: 2, Threads: 4, Model: machine.SwitchOnLoad}},
	}
	res, err := s.RunBatch(jobs)
	if err == nil {
		t.Fatal("livelocked job reported no error")
	}
	if res[0] == nil || res[2] == nil {
		t.Errorf("healthy jobs lost their results: %v, %v", res[0], res[2])
	}
	if res[1] != nil {
		t.Error("livelocked job returned a result")
	}
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err is %T, want *BatchError", err)
	}
	if be.Failed != 1 || len(be.Errs) != len(jobs) || be.Errs[1] == nil {
		t.Errorf("BatchError not job-aligned: failed=%d errs=%v", be.Failed, be.Errs)
	}
	if !errors.Is(err, machine.ErrMaxCycles) {
		t.Errorf("BatchError does not unwrap to ErrMaxCycles: %v", err)
	}
	// Satellite: the livelock message names the offending app and config.
	msg := err.Error()
	for _, want := range []string{"spin-forever", "switch-on-load", "procs=1", "threads=1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
}

// TestPanicIsolatedToJob: a panicking worker becomes a structured
// *PanicError for its own job; the session survives and keeps running.
func TestPanicIsolatedToJob(t *testing.T) {
	s := core.NewSession()
	cfg := machine.Config{Procs: 1, Threads: 1, Model: machine.SwitchOnLoad}
	_, err := s.Run(panicApp(), cfg)
	if err == nil {
		t.Fatal("panic not surfaced as an error")
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err is %T (%v), want *PanicError", err, err)
	}
	if pe.App != "boom" || pe.Value != "init exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError incomplete: app=%q value=%v stack=%dB", pe.App, pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "boom") || !strings.Contains(pe.Error(), "init exploded") {
		t.Errorf("PanicError message uninformative: %q", pe.Error())
	}
	// The session is still usable after the recovered panic.
	if _, err := s.Run(apps.MustNew("sieve", app.Quick), cfg); err != nil {
		t.Errorf("session broken after recovered panic: %v", err)
	}
}

// TestRunBatchPanicAggregated: panics inside a batch surface through the
// BatchError like any other failure.
func TestRunBatchPanicAggregated(t *testing.T) {
	s := core.NewSession()
	cfg := machine.Config{Procs: 1, Threads: 1, Model: machine.SwitchOnLoad}
	res, err := s.RunBatch([]core.Job{
		{App: panicApp(), Cfg: cfg},
		{App: apps.MustNew("sieve", app.Quick), Cfg: cfg},
	})
	if err == nil || res[1] == nil {
		t.Fatalf("err=%v res[1]=%v, want error with surviving result", err, res[1])
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("batch error does not expose the PanicError: %v", err)
	}
}

// TestMTSearchPartialOnFailure: a level that blows MaxCycles is
// skipped and labelled in the joined error, while the surviving levels
// still produce a best efficiency and target data.
func TestMTSearchPartialOnFailure(t *testing.T) {
	s := core.NewSession()
	sieve := apps.MustNew("sieve", app.Quick)
	probe := machine.Config{Procs: 2, Model: machine.SwitchOnLoad}

	// Pick a cycle cap between the threads=1 and threads=4 run lengths:
	// the slow single-thread level livelocks under it, the multithreaded
	// levels (shorter runs — that is the paper's whole point) pass.
	one := probe
	one.Threads = 1
	r1, err := s.Run(sieve, one)
	if err != nil {
		t.Fatal(err)
	}
	four := probe
	four.Threads = 4
	r4, err := s.Run(sieve, four)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cycles+4 >= r1.Cycles {
		t.Skipf("threads=4 (%d cycles) not enough faster than threads=1 (%d)", r4.Cycles, r1.Cycles)
	}
	tight := probe
	tight.MaxCycles = (r1.Cycles + r4.Cycles) / 2

	levels, bestEff, bestMT, err := s.MTSearch(sieve, tight, []float64{0.01}, 4)
	if err == nil {
		t.Fatal("threads=1 level did not fail under the tight cycle cap")
	}
	if !errors.Is(err, machine.ErrMaxCycles) {
		t.Errorf("joined error lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "threads=1") {
		t.Errorf("joined error does not label the failing level: %v", err)
	}
	// The surviving levels must still have been searched.
	if bestMT < 2 || bestEff <= 0 {
		t.Errorf("partial search lost its results: bestMT=%d bestEff=%v", bestMT, bestEff)
	}
	if levels[0] == 0 {
		t.Errorf("reachable target never satisfied by a surviving level: %v", levels)
	}
}
