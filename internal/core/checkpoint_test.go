package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
)

func resultJSON(t *testing.T, r *machine.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunCheckpointedMatchesPlainRun(t *testing.T) {
	a := apps.MustNew("sor", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 2, Model: machine.ExplicitSwitch}

	plain := core.NewSession()
	plain.CollectMetrics = true
	want, err := plain.Run(a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s := core.NewSession()
	s.CollectMetrics = true
	ckpts := 0
	got, err := s.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{
		Interval: 50_000,
		OnCheckpoint: func(cycle int64, snap []byte) error {
			if len(snap) == 0 {
				t.Errorf("empty snapshot at cycle %d", cycle)
			}
			ckpts++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ckpts == 0 {
		t.Error("no checkpoints taken (interval too large for the run?)")
	}
	if resultJSON(t, want) != resultJSON(t, got) {
		t.Error("checkpointed result differs from plain run")
	}

	// The checkpointed run landed on the memo: a plain Run is now a hit.
	again, err := s.Run(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Error("memo entry not shared with plain Run")
	}
	if s.SimCount() != 1 || s.MemoHits() != 1 {
		t.Errorf("SimCount=%d MemoHits=%d, want 1 and 1", s.SimCount(), s.MemoHits())
	}

	// And a memo hit wins over Resume, serving the identical pointer.
	hit, err := s.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{Interval: 50_000, Resume: []byte("ignored")})
	if err != nil {
		t.Fatal(err)
	}
	if hit != got {
		t.Error("memo hit did not short-circuit a resumed run")
	}
}

func TestRunCheckpointedResumeByteIdentity(t *testing.T) {
	a := apps.MustNew("sieve", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse}

	// First session: collect every snapshot of an uninterrupted
	// checkpointed run.
	s1 := core.NewSession()
	s1.CollectMetrics = true
	var snaps [][]byte
	want, err := s1.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{
		Interval: 200_000,
		OnCheckpoint: func(cycle int64, snap []byte) error {
			snaps = append(snaps, snap)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("need at least 2 checkpoints to test resume, got %d", len(snaps))
	}

	// Second session (a "restarted process"): resume from a middle
	// snapshot and finish. The result must be byte-identical.
	s2 := core.NewSession()
	s2.CollectMetrics = true
	got, err := s2.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{
		Interval: 200_000,
		Resume:   snaps[len(snaps)/2],
	})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, want) != resultJSON(t, got) {
		t.Error("resumed run differs from uninterrupted run")
	}
}

func TestRunCheckpointedRejections(t *testing.T) {
	a := apps.MustNew("sieve", app.Quick)
	cfg := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnUse}
	s := core.NewSession()

	if _, err := s.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{}); err == nil {
		t.Error("zero interval accepted")
	}
	// Junk is a corrupt artifact, not a snapshot of another format or
	// run: no caller should restart over it.
	if _, err := s.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{Interval: 200_000, Resume: []byte("junk")}); err == nil || errors.Is(err, machine.ErrSnapshotMismatch) {
		t.Errorf("garbage resume snapshot: err = %v, want a non-mismatch error", err)
	}

	// A snapshot from a different configuration must be rejected as a
	// mismatch, not silently memoized under the wrong key.
	var snap []byte
	other := cfg
	other.Threads = 3
	_, err := s.RunCheckpointedContext(context.Background(), a, other, core.CheckpointConfig{
		Interval: 200_000,
		OnCheckpoint: func(_ int64, b []byte) error {
			if snap == nil {
				snap = b
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	if _, err := s.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{Interval: 200_000, Resume: snap}); !errors.Is(err, machine.ErrSnapshotMismatch) {
		t.Errorf("snapshot from a different configuration: err = %v, want ErrSnapshotMismatch", err)
	}

	// An OnCheckpoint error aborts the run with that error.
	sinkErr := errors.New("disk full")
	s2 := core.NewSession()
	if _, err := s2.RunCheckpointedContext(context.Background(), a, cfg, core.CheckpointConfig{
		Interval:     200_000,
		OnCheckpoint: func(int64, []byte) error { return sinkErr },
	}); !errors.Is(err, sinkErr) {
		t.Errorf("sink error not propagated: %v", err)
	}
}
