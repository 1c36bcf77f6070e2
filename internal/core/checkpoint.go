package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"mtsim/internal/app"
	"mtsim/internal/machine"
)

// CheckpointConfig controls a resumable run (RunCheckpointedContext).
type CheckpointConfig struct {
	// Interval is the cycle budget between checkpoints; must be > 0.
	Interval int64
	// Resume, when non-nil, is a machine snapshot to resume from instead
	// of starting at cycle 0. It must have been taken from the same
	// application, program variant and configuration, in a format this
	// build reads; otherwise the run fails with an error wrapping
	// machine.ErrSnapshotMismatch, and running again without Resume
	// yields the same Result.
	Resume []byte
	// OnCheckpoint, when non-nil, receives every snapshot as it is
	// taken, with the cycle the machine is paused at. Returning an error
	// aborts the run with that error (the snapshot already delivered
	// remains valid for a later resume).
	OnCheckpoint func(cycle int64, snapshot []byte) error
}

// RunCheckpointedContext is RunContext for resumable jobs: the
// simulation pauses every Interval cycles, takes a deterministic
// snapshot, hands it to OnCheckpoint, and continues. Because a
// paused-and-resumed machine is byte-identical to an uninterrupted one,
// the returned Result — and the session's memo — are exactly those of a
// plain RunContext with the same arguments, whether the run started
// fresh, resumed from a snapshot, or was served straight from the memo
// (a memo hit wins over Resume: the cached result IS the resumed run's
// result).
//
// Unlike RunContext, concurrent checkpointed runs of the same key do
// not singleflight-merge — each caller owns its own machine so its
// checkpoint stream is self-consistent — but both still land on (and
// later read) the same memo entry.
func (s *Session) RunCheckpointedContext(ctx context.Context, a *app.App, cfg machine.Config, ck CheckpointConfig) (res *machine.Result, err error) {
	if ck.Interval <= 0 {
		return nil, fmt.Errorf("core: checkpoint interval %d must be positive", ck.Interval)
	}
	k := runKey{a.Name, cfg}
	s.mu.Lock()
	if r, ok := s.results[k]; ok {
		s.mu.Unlock()
		s.memoHits.Add(1)
		return r, nil
	}
	s.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{App: a.Name, Cfg: cfg, Value: v, Stack: debug.Stack()}
		}
	}()
	if s.CollectMetrics {
		// As in simulate: the memo key above used the caller's value, so
		// collection never forks the memo space.
		cfg.CollectMetrics = true
	}
	p, err := a.ProgramFor(cfg.Model)
	if err != nil {
		return nil, err
	}

	var mc *machine.Machine
	if ck.Resume != nil {
		mc, err = machine.RestoreMachine(ck.Resume, p, a.Init)
		if err != nil {
			return nil, fmt.Errorf("core: %s: resume: %w", a.Name, err)
		}
		if mc.Config() != cfg.Effective() {
			return nil, fmt.Errorf("core: %s: resume: %w: snapshot was taken under a different configuration",
				a.Name, machine.ErrSnapshotMismatch)
		}
	} else {
		mc, err = machine.NewMachine(cfg, p, a.Init)
		if err != nil {
			return nil, err
		}
	}

	s.sims.Add(1)
	for {
		done, err := mc.RunUntil(ctx, mc.Cycle()+ck.Interval)
		if err != nil {
			if isCancellation(err) {
				return nil, err
			}
			if errors.Is(err, machine.ErrMaxCycles) {
				return nil, fmt.Errorf("core: %s [model=%s procs=%d threads=%d latency=%d]: %w",
					a.Name, cfg.Model, cfg.Procs, cfg.Threads, cfg.Latency, err)
			}
			return nil, fmt.Errorf("core: %s: %w", a.Name, err)
		}
		if done {
			break
		}
		if ck.OnCheckpoint != nil {
			snap, err := mc.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", a.Name, err)
			}
			if err := ck.OnCheckpoint(mc.Cycle(), snap); err != nil {
				return nil, fmt.Errorf("core: %s: checkpoint sink: %w", a.Name, err)
			}
		}
	}
	r := mc.Result()
	if s.Verify && a.Check != nil {
		if err := a.Check(mc.SharedMem()); err != nil {
			return nil, fmt.Errorf("core: %s under %s produced wrong result: %w", a.Name, cfg.Model, err)
		}
	}
	if r.Metrics != nil {
		s.mu.Lock()
		s.batch.Add(r.Metrics)
		s.mu.Unlock()
	}
	s.mu.Lock()
	if prev, ok := s.results[k]; ok {
		// A concurrent plain Run (or another checkpointed run) got there
		// first; both computed the same bytes, keep one pointer.
		r = prev
	} else {
		s.results[k] = r
	}
	s.mu.Unlock()
	return r, nil
}
