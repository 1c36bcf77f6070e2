package machine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/isa"
	"mtsim/internal/machine"
	"mtsim/internal/net"
	"mtsim/internal/par"
	"mtsim/internal/prog"
)

// buildDispatchTorture returns a program that crosses every compiled/
// interpreted boundary the engine has: a local-memory self-loop (the
// unrolled-trace fast path), a branch into the interior of a fusible
// run, a jal/jr subroutine (dynamic-jump terminal), a division whose
// divisor the caller controls (zero = mid-trace fault), shared loads
// and stores (interpreter slow path), and a spin lock (probe yields).
func buildDispatchTorture(nloop, divisor int64) *prog.Program {
	b := prog.NewBuilder("dispatch-torture")
	acc := b.Shared("acc", 4)
	b.Local("buf", 32)
	lk := par.AllocLock(b, "lock")

	// Local self-loop: buf[i] = i*3 + tid.
	b.Li(4, 0)     // i
	b.Li(5, nloop) // trip count
	b.Li(6, 0)     // accumulator
	b.Label("loop")
	b.Muli(7, 4, 3)
	b.Add(7, 7, isa.RTid)
	b.Sw(7, 4, 0)
	b.Lw(8, 4, 0)
	b.Add(6, 6, 8)
	b.Addi(4, 4, 1)
	b.Blt(4, 5, "loop")

	// Branch into the interior of the fusible run below: the first
	// pass enters at "entry", later passes branch back to "interior",
	// which is mid-run and therefore mid-trace for traces rooted at
	// "entry".
	b.Li(9, 2) // pass counter
	b.Label("entry")
	b.Addi(6, 6, 1)
	b.Label("interior")
	b.Xori(6, 6, 5)
	b.Slli(10, 6, 1)
	b.Srai(10, 10, 1)
	b.Addi(9, 9, -1)
	b.Bnez(9, "interior")

	// Subroutine via jal/jr: doubles r6.
	b.Jal("double")

	// Division with a caller-controlled divisor; zero faults mid-trace.
	b.Li(11, divisor)
	b.Div(12, 6, 11)
	b.Rem(13, 6, 11)

	// FP path.
	b.Mtf(1, 10)
	b.CvtIF(2, 12)
	b.Fadd(3, 1, 2)
	b.CvtFI(14, 3)

	// Shared accumulate under a spin lock.
	b.Li(20, lk.Base)
	par.LockAcquire(b, 20, 0, 21, 22)
	b.Li(15, acc.Base)
	b.LwS(16, 15, 0)
	b.Add(16, 16, 6)
	b.Add(16, 16, 14)
	b.SwS(16, 15, 0)
	par.LockRelease(b, 20, 0, 21, 22)
	b.Halt()

	b.Label("double")
	b.Add(6, 6, 6)
	b.Jr(isa.RRet)
	return b.MustBuild()
}

// resultJSON renders a Result for comparison with the dispatch mode
// normalized away — it is the one config field allowed to differ.
func resultJSON(t *testing.T, res *machine.Result) string {
	t.Helper()
	res.Config.DispatchMode = machine.DispatchAuto
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// compiledMode returns the mode that exercises the engine for a model:
// switch-every-cycle rejects an explicit DispatchCompiled (nothing to
// fuse), so parity for it goes through auto's interpreter fallback.
func compiledMode(model machine.Model) machine.DispatchMode {
	if model == machine.SwitchEveryCycle {
		return machine.DispatchAuto
	}
	return machine.DispatchCompiled
}

// runDispatch runs p under the given dispatch mode and returns the
// normalized result JSON and the error string ("" when nil); a faulting
// run must fault identically under both engines.
func runDispatch(t *testing.T, cfg machine.Config, p *prog.Program, mode machine.DispatchMode) (string, string) {
	t.Helper()
	cfg.DispatchMode = mode
	res, err := machine.Run(cfg, p, nil)
	if err != nil {
		return "", err.Error()
	}
	return resultJSON(t, res), ""
}

// FuzzCompiledVsInterpreted is the engine's differential oracle: for
// fuzzed machine shapes (model, geometry, latency, preemption, faults,
// network topology, cycle accounting on or off) and fuzzed program
// behavior (loop trip counts, a possibly-zero divisor), the compiled
// engine must produce the byte-identical Result — metrics timelines
// included — or the byte-identical error as the interpreter.
func FuzzCompiledVsInterpreted(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(2), uint16(16), int16(0), false, int64(3), uint8(9), 0.0, uint8(0), false)
	f.Add(uint64(42), uint8(3), uint8(3), uint8(2), uint16(200), int16(64), true, int64(0), uint8(4), 0.0, uint8(0), false)
	f.Add(uint64(7), uint8(5), uint8(1), uint8(4), uint16(80), int16(-1), false, int64(-5), uint8(40), 0.2, uint8(0), false)
	f.Add(uint64(99), uint8(6), uint8(2), uint8(1), uint16(4), int16(17), true, int64(1), uint8(70), 0.05, uint8(0), false)
	// Routed topologies: shared round trips go through the link queues,
	// so trace timing depends on contention state the engines must agree on.
	f.Add(uint64(5), uint8(2), uint8(3), uint8(3), uint16(60), int16(0), false, int64(3), uint8(30), 0.0, uint8(1), false)
	f.Add(uint64(11), uint8(4), uint8(2), uint8(2), uint16(90), int16(0), true, int64(7), uint8(50), 0.1, uint8(2), false)
	f.Add(uint64(23), uint8(3), uint8(4), uint8(2), uint16(40), int16(9), false, int64(2), uint8(20), 0.0, uint8(3), false)
	// Cycle accounting: the collector sees each fused chain as one bulk
	// call, which must equal the interpreter's per-instruction hooks —
	// through preemption, a mid-chain trap, fault recovery debt, cache
	// hits and routed contention.
	f.Add(uint64(3), uint8(2), uint8(2), uint8(3), uint16(50), int16(40), false, int64(3), uint8(25), 0.0, uint8(0), true)
	f.Add(uint64(8), uint8(7), uint8(3), uint8(2), uint16(120), int16(0), true, int64(0), uint8(12), 0.0, uint8(0), true)
	f.Add(uint64(13), uint8(3), uint8(2), uint8(2), uint16(70), int16(0), false, int64(5), uint8(35), 0.2, uint8(1), true)
	f.Add(uint64(31), uint8(4), uint8(4), uint8(3), uint16(30), int16(23), true, int64(2), uint8(60), 0.0, uint8(2), true)
	f.Add(uint64(57), uint8(0), uint8(3), uint8(4), uint16(0), int16(-1), false, int64(9), uint8(90), 0.0, uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, modelIdx, procs, threads uint8, latency uint16, preempt int16, crit bool, divisor int64, nloop uint8, rate float64, topoIdx uint8, metrics bool) {
		model := machine.Model(int(modelIdx) % machine.NumModels)
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			rate = 0
		}
		if rate > 0.25 {
			rate = 0.25
		}
		kind := net.TopologyKind(int(topoIdx) % net.NumTopologies)
		if model == machine.Ideal {
			kind = net.TopoConstant // routed topologies are rejected on the ideal machine
		}
		cfg := machine.Config{
			Procs:          1 + int(procs)%4,
			Threads:        1 + int(threads)%4,
			Model:          model,
			Latency:        int(latency) % 256,
			PreemptLimit:   int(preempt),
			CritPriority:   crit,
			CollectMetrics: metrics,
		}
		cfg.Topology = net.TopologyConfig{Kind: kind}
		if rate > 0 {
			cfg.Faults = net.FaultConfig{
				Enabled: true, Seed: seed,
				DropRate: rate / 2, DelayRate: rate,
			}
		}
		p := buildDispatchTorture(1+int64(nloop)%100, divisor)

		wantJSON, wantErr := runDispatch(t, cfg, p, machine.DispatchInterpreted)
		gotJSON, gotErr := runDispatch(t, cfg, p, compiledMode(model))
		if gotErr != wantErr {
			t.Fatalf("error mismatch:\ncompiled:    %q\ninterpreted: %q", gotErr, wantErr)
		}
		if gotJSON != wantJSON {
			t.Errorf("result mismatch:\ncompiled:    %s\ninterpreted: %s", gotJSON, wantJSON)
		}
	})
}

// TestDispatchModesAgreeAcrossModels pins the differential contract on
// every model deterministically (the fuzzer samples; this enumerates).
func TestDispatchModesAgreeAcrossModels(t *testing.T) {
	p := buildDispatchTorture(25, 3)
	for _, model := range allModels() {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/t%d", model, threads), func(t *testing.T) {
				cfg := machine.Config{Procs: 3, Threads: threads, Model: model, Latency: 60}
				wantJSON, wantErr := runDispatch(t, cfg, p, machine.DispatchInterpreted)
				gotJSON, gotErr := runDispatch(t, cfg, p, compiledMode(model))
				if gotErr != wantErr || gotJSON != wantJSON {
					t.Errorf("compiled differs from interpreted:\ncompiled:    %s%s\ninterpreted: %s%s",
						gotJSON, gotErr, wantJSON, wantErr)
				}
			})
		}
	}
}

// TestDispatchModesAgreeOnKernelTopologies runs the irregular kernels
// — whose shared-access streams are data-dependent — on every routed
// topology and asserts compiled/interpreted byte-identity, with each
// run also passing the kernel's own host-reference check.
func TestDispatchModesAgreeOnKernelTopologies(t *testing.T) {
	for _, name := range apps.IrregularNames() {
		a := apps.MustNew(name, app.Quick)
		p, err := a.ProgramFor(machine.SwitchOnLoad)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []net.TopologyKind{net.TopoMesh, net.TopoFatTree, net.TopoDragonfly} {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				cfg := machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnLoad, Latency: 64}
				cfg.Topology = net.TopologyConfig{Kind: kind}
				run := func(mode machine.DispatchMode) string {
					c := cfg
					c.DispatchMode = mode
					res, err := machine.RunChecked(c, p, a.Init, a.Check)
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					return resultJSON(t, res)
				}
				want := run(machine.DispatchInterpreted)
				if got := run(machine.DispatchCompiled); got != want {
					t.Errorf("compiled differs from interpreted:\ncompiled:    %s\ninterpreted: %s", got, want)
				}
			})
		}
	}
}

// TestDispatchFaultParity: a mid-trace fault must surface the identical
// error under both engines — the trap-before-effect contract means the
// interpreter re-executes the faulting instruction and produces it.
func TestDispatchFaultParity(t *testing.T) {
	cases := map[string]*prog.Program{
		"div-zero": buildDispatchTorture(5, 0),
		"local-oob": func() *prog.Program {
			b := prog.NewBuilder("oob")
			b.Local("buf", 4)
			b.Li(4, 0)
			b.Label("loop")
			b.Addi(4, 4, 1)
			b.Sw(4, 4, 0) // walks off the end of buf on iteration 4
			b.J("loop")
			return b.MustBuild()
		}(),
		"bad-jr": func() *prog.Program {
			b := prog.NewBuilder("badjr")
			b.Li(4, 11)
			b.Addi(4, 4, 1000)
			b.Jr(4)
			b.Halt()
			return b.MustBuild()
		}(),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnLoad, Latency: 20}
			_, wantErr := runDispatch(t, cfg, p, machine.DispatchInterpreted)
			_, gotErr := runDispatch(t, cfg, p, machine.DispatchCompiled)
			if wantErr == "" {
				t.Fatal("interpreted run did not fault, want a runtime fault")
			}
			if gotErr != wantErr {
				t.Errorf("compiled error = %q, want %q", gotErr, wantErr)
			}
		})
	}
}

// TestDispatchFaultRecoveryParity drives the network fault-injection
// recovery protocol (timeout, retry, backoff) under both engines: the
// retried accesses re-enter compiled chains after each recovery, and
// the results must stay byte-identical.
func TestDispatchFaultRecoveryParity(t *testing.T) {
	p := buildDispatchTorture(30, 7)
	for _, seed := range []uint64{1, 17, 333} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := machine.Config{
				Procs: 3, Threads: 2, Model: machine.SwitchOnUse, Latency: 50,
				Faults: net.FaultConfig{
					Enabled: true, Seed: seed,
					DropRate: 0.1, DelayRate: 0.2,
				},
			}
			wantJSON, wantErr := runDispatch(t, cfg, p, machine.DispatchInterpreted)
			gotJSON, gotErr := runDispatch(t, cfg, p, machine.DispatchCompiled)
			if gotErr != wantErr || gotJSON != wantJSON {
				t.Errorf("compiled differs from interpreted under faults:\ncompiled:    %s%s\ninterpreted: %s%s",
					gotJSON, gotErr, wantJSON, wantErr)
			}
		})
	}
}

// TestRunUntilPauseParity single-steps both engines through the same
// program with RunUntil and asserts they pause on the identical cycle
// at every step — a pause bound falling inside a trace must make the
// compiled engine bail to the interpreter, never drift past the bound.
// Each shape runs with cycle accounting off and on, and continues from
// every pause either on the live Machine (the path of core's
// checkpointed runs) or from a snapshot, which carries the collector's
// state. Both engines must finish with the Result, metrics timelines
// included, of an uninterrupted interpreted run.
func TestRunUntilPauseParity(t *testing.T) {
	p := buildDispatchTorture(25, 3)
	ctx := context.Background()
	shapes := []struct {
		name string
		cfg  machine.Config
	}{
		{"switch-on-load-2x2", machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnLoad, Latency: 40}},
		{"switch-on-use-2x3-preempt", machine.Config{Procs: 2, Threads: 3, Model: machine.SwitchOnUse, Latency: 40, PreemptLimit: 30}},
	}
	for _, shape := range shapes {
		for _, metrics := range []bool{false, true} {
			for _, restore := range []bool{false, true} {
				cfg := shape.cfg
				cfg.CollectMetrics = metrics
				t.Run(fmt.Sprintf("%s/metrics=%v/restore=%v", shape.name, metrics, restore), func(t *testing.T) {
					step := func(mode machine.DispatchMode) ([]int64, string) {
						c := cfg
						c.DispatchMode = mode
						mc, err := machine.NewMachine(c, p, nil)
						if err != nil {
							t.Fatal(err)
						}
						var cycles []int64
						for stop := int64(1); ; stop += 7 {
							done, err := mc.RunUntil(ctx, stop)
							if err != nil {
								t.Fatal(err)
							}
							cycles = append(cycles, mc.Cycle())
							if done {
								break
							}
							if !restore {
								continue
							}
							data, err := mc.Snapshot()
							if err != nil {
								t.Fatal(err)
							}
							if mc, err = machine.RestoreMachine(data, p); err != nil {
								t.Fatal(err)
							}
						}
						return cycles, resultJSON(t, mc.Result())
					}
					wholeJSON, wholeErr := runDispatch(t, cfg, p, machine.DispatchInterpreted)
					if wholeErr != "" {
						t.Fatal(wholeErr)
					}
					wantCycles, wantJSON := step(machine.DispatchInterpreted)
					gotCycles, gotJSON := step(machine.DispatchCompiled)
					if len(gotCycles) != len(wantCycles) {
						t.Fatalf("step count = %d, want %d", len(gotCycles), len(wantCycles))
					}
					for i := range wantCycles {
						if gotCycles[i] != wantCycles[i] {
							t.Fatalf("step %d paused at cycle %d, interpreted paused at %d", i, gotCycles[i], wantCycles[i])
						}
					}
					if wantJSON != wholeJSON {
						t.Errorf("paused interpreted run differs from uninterrupted:\npaused: %s\nwhole:  %s", wantJSON, wholeJSON)
					}
					if gotJSON != wholeJSON {
						t.Errorf("paused compiled run differs from uninterrupted interpreted:\ncompiled: %s\nwhole:    %s", gotJSON, wholeJSON)
					}
				})
			}
		}
	}
}

// TestWAWReplyDrainParity is the regression test for the scoreboard
// write-after-write drain: a shared load's reply is outstanding when a
// later instruction overwrites the destination register. The compiled
// gate (t.maxReady <= now) must keep chains off the thread until the
// interpreter has drained the reply, or the overwrite would be lost.
func TestWAWReplyDrainParity(t *testing.T) {
	b := prog.NewBuilder("waw")
	x := b.Shared("x", 2)
	out := b.Shared("out", 2)
	b.Li(4, x.Base)
	b.LwS(5, 4, 0)  // reply for r5 outstanding...
	b.Li(5, 77)     // ...overwritten before any use (WAW)
	b.Addi(6, 5, 1) // must read 77, not the stale reply
	b.Li(7, out.Base)
	b.SwS(6, 7, 0)
	b.Halt()
	p := b.MustBuild()

	// Models that do not switch on the load itself leave the reply
	// pending while the thread keeps running — the WAW window.
	for _, model := range []machine.Model{machine.Ideal, machine.ExplicitSwitch, machine.SwitchOnUse} {
		t.Run(model.String(), func(t *testing.T) {
			for _, mode := range []machine.DispatchMode{machine.DispatchInterpreted, machine.DispatchCompiled} {
				cfg := machine.Config{Procs: 1, Threads: 1, Model: model, Latency: 100, DispatchMode: mode}
				_, err := machine.RunChecked(cfg, p, nil, func(sh *machine.Shared) error {
					if got := sh.WordAt("out", 0); got != 78 {
						return fmt.Errorf("out = %d, want 78 (stale reply overwrote the WAW value)", got)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
			cfg := machine.Config{Procs: 1, Threads: 1, Model: model, Latency: 100}
			wantJSON, _ := runDispatch(t, cfg, p, machine.DispatchInterpreted)
			gotJSON, _ := runDispatch(t, cfg, p, machine.DispatchCompiled)
			if gotJSON != wantJSON {
				t.Errorf("results differ:\ncompiled:    %s\ninterpreted: %s", gotJSON, wantJSON)
			}
		})
	}
}

// TestMetricsJSONUnchangedByDispatchMode: a metrics run under the
// default auto mode, which compiles, must produce the byte-identical
// Result — metrics timelines included — as a forced-interpreter run, on
// every application, model and network. Cache models and the ideal
// machine run on the constant network only: routed topologies reject
// the ideal machine, and routed cache runs take minutes. Switch-every-
// cycle is left out, since auto interprets it and the row would compare
// the interpreter with itself (TestDispatchModesAgreeAcrossModels pins
// that fallback).
func TestMetricsJSONUnchangedByDispatchMode(t *testing.T) {
	topologies := []net.TopologyKind{net.TopoConstant, net.TopoMesh, net.TopoFatTree, net.TopoDragonfly}
	for _, name := range apps.AllNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := apps.MustNew(name, app.Quick)
			for _, model := range allModels() {
				if model == machine.SwitchEveryCycle {
					continue
				}
				p, err := a.ProgramFor(model)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range topologies {
					if kind != net.TopoConstant && (model == machine.Ideal || model.UsesCache()) {
						continue
					}
					cfg := machine.Config{
						Procs: 4, Threads: 2, Model: model, Latency: 60,
						CollectMetrics: true,
					}
					cfg.Topology = net.TopologyConfig{Kind: kind}
					t.Run(fmt.Sprintf("%s/%s", model, kind), func(t *testing.T) {
						run := func(mode machine.DispatchMode) string {
							c := cfg
							c.DispatchMode = mode
							res, err := machine.RunChecked(c, p, a.Init, a.Check)
							if err != nil {
								t.Fatalf("%s: %v", mode, err)
							}
							if res.Metrics == nil {
								t.Fatalf("%s: CollectMetrics set but Result.Metrics is nil", mode)
							}
							return resultJSON(t, res)
						}
						want := run(machine.DispatchInterpreted)
						if got := run(machine.DispatchAuto); got != want {
							t.Errorf("metrics run differs across dispatch modes:\nauto:        %s\ninterpreted: %s", got, want)
						}
					})
				}
			}
		})
	}
}

// TestDispatchModeValidation: the explicit compiled mode must reject
// configurations whose semantics the engine cannot reproduce, and
// accept cycle accounting, which it reproduces exactly.
func TestDispatchModeValidation(t *testing.T) {
	p := buildDispatchTorture(3, 1)
	bad := []machine.Config{
		{Model: machine.SwitchEveryCycle, Threads: 2, DispatchMode: machine.DispatchCompiled},
		{Model: machine.Ideal, DispatchMode: machine.DispatchMode(99)},
	}
	for i, cfg := range bad {
		if _, err := machine.Run(cfg, p, nil); err == nil {
			t.Errorf("case %d: Run() accepted an invalid dispatch configuration", i)
		}
	}
	res, err := machine.Run(machine.Config{Model: machine.Ideal, CollectMetrics: true, DispatchMode: machine.DispatchCompiled}, p, nil)
	if err != nil {
		t.Fatalf("compiled mode with CollectMetrics: %v", err)
	}
	if res.Metrics == nil {
		t.Fatal("compiled mode with CollectMetrics: Result.Metrics is nil")
	}
	// Auto silently falls back to the interpreter for the rejected shape.
	res, err = machine.Run(machine.Config{Model: machine.SwitchEveryCycle, Threads: 2}, p, nil)
	if err != nil || res == nil {
		t.Fatalf("auto mode under switch-every-cycle: %v", err)
	}
}
