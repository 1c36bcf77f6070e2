package machine_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"mtsim/internal/machine"
	"mtsim/internal/net"
	"mtsim/internal/prog"
)

// runInterrupted drives cfg/p to completion on a Machine, pausing every
// step cycles and round-tripping the whole simulation through a
// snapshot at every pause — the strictest exercise of the
// checkpoint/restore contract.
func runInterrupted(t *testing.T, cfg machine.Config, p *prog.Program, img *machine.Image, step int64) *machine.Result {
	t.Helper()
	mc, err := machine.NewMachine(cfg, p, img)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	ctx := context.Background()
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("interrupted run did not terminate")
		}
		done, err := mc.RunUntil(ctx, mc.Cycle()+step)
		if err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		if done {
			return mc.Result()
		}
		snap, err := mc.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at cycle %d: %v", mc.Cycle(), err)
		}
		mc, err = machine.RestoreMachine(snap, p, img)
		if err != nil {
			t.Fatalf("RestoreMachine at cycle %d: %v", mc2cycle(snap), err)
		}
	}
}

// mc2cycle is only for the error path above; a failed restore has no
// machine to ask, so report the snapshot length instead.
func mc2cycle(snap []byte) int { return len(snap) }

// checkByteIdentical asserts two results are deeply equal and that
// their JSON forms (the shape served by mtsimd, Metrics included) are
// byte-identical.
func checkByteIdentical(t *testing.T, want, got *machine.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("interrupted result differs from uninterrupted:\nwant %+v\ngot  %+v", want, got)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Fatalf("JSON forms differ:\nwant %s\ngot  %s", wj, gj)
	}
}

func TestPauseResumeByteIdenticalAllModels(t *testing.T) {
	p := buildCounter(20)
	for _, model := range allModels() {
		t.Run(model.String(), func(t *testing.T) {
			cfg := machine.Config{Procs: 4, Threads: 3, Model: model, CollectRunLengths: true}
			want, err := machine.Run(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := runInterrupted(t, cfg, p, nil, 137)
			checkByteIdentical(t, want, got)
		})
	}
}

// TestPauseResumeByteIdenticalExtensions covers the stateful extension
// subsystems — metrics, faults, congestion, jitter, grouping window —
// whose mid-run state must survive the round trip exactly.
func TestPauseResumeByteIdenticalExtensions(t *testing.T) {
	p := buildCounter(15)
	cases := []struct {
		name string
		cfg  machine.Config
	}{
		{"metrics", machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse, CollectMetrics: true}},
		{"window-metrics", machine.Config{Procs: 2, Threads: 4, Model: machine.ExplicitSwitch, GroupWindow: true, CollectMetrics: true, CollectRunLengths: true}},
		{"conditional-invariants", machine.Config{Procs: 4, Threads: 2, Model: machine.ConditionalSwitch, CheckInvariants: true, CollectMetrics: true}},
		{"faults", machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse, CollectMetrics: true, LatencyJitter: 40,
			Faults: net.FaultConfig{Enabled: true, Seed: 99, DropRate: 0.1, DupRate: 0.05, DelayRate: 0.1}}},
		{"congestion", machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnLoad,
			Congestion: net.CongestionConfig{Enabled: true}}},
		{"jitter", machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse, LatencyJitter: 31}},
		{"crit-priority", machine.Config{Procs: 2, Threads: 3, Model: machine.SwitchOnUseMiss, CritPriority: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := machine.Run(tc.cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := runInterrupted(t, tc.cfg, p, nil, 211)
			checkByteIdentical(t, want, got)
		})
	}
}

func TestMachineRunMatchesOneShot(t *testing.T) {
	p := buildCounter(25)
	cfg := machine.Config{Procs: 4, Threads: 4, Model: machine.ExplicitSwitch, CollectMetrics: true}
	want, err := machine.Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := machine.NewMachine(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkByteIdentical(t, want, got)
	if !mc.Done() {
		t.Error("Done() = false after Run")
	}
	if mc.Result() == nil {
		t.Error("Result() = nil after Run")
	}
	// A completed machine refuses further snapshots but tolerates drives.
	if _, err := mc.Snapshot(); err == nil {
		t.Error("Snapshot of a completed run succeeded")
	}
	if done, err := mc.RunUntil(context.Background(), mc.Cycle()+100); !done || err != nil {
		t.Errorf("RunUntil after completion = (%v, %v), want (true, nil)", done, err)
	}
}

func TestSnapshotRestoreSnapshotIdentity(t *testing.T) {
	p := buildCounter(1000)
	cfg := machine.Config{Procs: 3, Threads: 3, Model: machine.SwitchOnUseMiss, CollectMetrics: true}
	mc, err := machine.NewMachine(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := mc.RunUntil(context.Background(), 1500); err != nil || done {
		t.Fatalf("RunUntil = (%v, %v), want a pause", done, err)
	}
	s1, err := mc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := machine.RestoreMachine(s1, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cycle() != mc.Cycle() {
		t.Fatalf("restored Cycle = %d, want %d", rc.Cycle(), mc.Cycle())
	}
	s2, err := rc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Fatal("snapshot -> restore -> snapshot is not the identity")
	}
}

func TestRestoreRejectsCorruptAndMismatched(t *testing.T) {
	p := buildCounter(1000)
	cfg := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnUse}
	mc, err := machine.NewMachine(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := mc.RunUntil(context.Background(), 500); err != nil || done {
		t.Fatalf("RunUntil = (%v, %v), want a pause", done, err)
	}
	snap, err := mc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := machine.RestoreMachine(nil, p, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := machine.RestoreMachine([]byte("garbage"), p, nil); err == nil {
		t.Error("garbage snapshot accepted")
	}
	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x40
	if _, err := machine.RestoreMachine(bad, p, nil); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	// Truncation.
	if _, err := machine.RestoreMachine(snap[:len(snap)-3], p, nil); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Wrong program: same name, different body must be rejected by the
	// content hash; different name by the name check.
	other := buildCounter(11)
	if _, err := machine.RestoreMachine(snap, other, nil); !errors.Is(err, machine.ErrSnapshotMismatch) {
		t.Errorf("snapshot accepted for a different program body (err=%v)", err)
	}
	renamed := prog.NewBuilder("other")
	renamed.Halt()
	if _, err := machine.RestoreMachine(snap, renamed.MustBuild(), nil); !errors.Is(err, machine.ErrSnapshotMismatch) {
		t.Errorf("snapshot accepted for a different program name (err=%v)", err)
	}
}

func TestMachineCancellationFailsPermanently(t *testing.T) {
	p := buildCounter(10_000)
	cfg := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnUse}
	mc, err := machine.NewMachine(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mc.RunUntil(ctx, 1_000_000); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
	// The failure is sticky: the machine can be neither driven nor
	// snapshotted (its state may be mid-flight).
	if _, err := mc.RunUntil(context.Background(), 1_000_000); err == nil {
		t.Error("failed machine accepted another drive")
	}
	if _, err := mc.Snapshot(); err == nil {
		t.Error("failed machine produced a snapshot")
	}
	if mc.Err() == nil {
		t.Error("Err() = nil on failed machine")
	}
}

func TestRunUntilHonorsStop(t *testing.T) {
	p := buildCounter(1000)
	cfg := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnUse}
	mc, err := machine.NewMachine(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	done, err := mc.RunUntil(context.Background(), 777)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("tiny budget completed a long program")
	}
	if c := mc.Cycle(); c < 777 {
		t.Fatalf("paused at cycle %d, want >= stop 777", c)
	}
	if mc.Result() != nil {
		t.Error("Result() non-nil while paused")
	}
	// stop <= Cycle() must make no progress and stay healthy.
	before := mc.Cycle()
	if done, err := mc.RunUntil(context.Background(), before); done || err != nil {
		t.Fatalf("RunUntil(stop=now) = (%v, %v)", done, err)
	}
	if mc.Cycle() != before {
		t.Errorf("clock moved from %d to %d under an empty budget", before, mc.Cycle())
	}
}
