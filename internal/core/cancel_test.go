package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
)

// noLeakedGoroutines registers a cleanup that fails the test if the
// goroutine count has not returned to its starting level shortly after
// the test body — the manual stand-in for a leak detector dependency.
// Canceled batches must unwind their worker pools, not orphan them.
func noLeakedGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestRunBatchContextPreCanceled: a dead context fails every job in its
// own slot — the error is a job-aligned *BatchError of ctx.Err()s, not
// a bare error that loses the shape of the batch.
func TestRunBatchContextPreCanceled(t *testing.T) {
	noLeakedGoroutines(t)
	s := core.NewSession()
	sieve := apps.MustNew("sieve", app.Quick)
	jobs := []core.Job{
		{App: sieve, Cfg: machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnLoad}},
		{App: sieve, Cfg: machine.Config{Procs: 2, Threads: 4, Model: machine.SwitchOnLoad}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.RunBatchContext(ctx, jobs)
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *BatchError", err, err)
	}
	if len(be.Errs) != len(jobs) || be.Failed != len(jobs) {
		t.Fatalf("BatchError not job-aligned: %d errs, %d failed, want %d", len(be.Errs), be.Failed, len(jobs))
	}
	for i := range jobs {
		if !errors.Is(be.Errs[i], context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, be.Errs[i])
		}
		if res[i] != nil {
			t.Errorf("job %d: canceled job returned a result", i)
		}
	}
	if s.SimCount() != 0 {
		t.Errorf("SimCount = %d after pre-canceled batch, want 0", s.SimCount())
	}
}

// TestForEachPreCanceledStartsNothing: once ctx is canceled no call
// starts, even while pool slots are free (a select over a free slot and
// ctx.Done() picks either at random), and every index fails with
// ctx.Err().
func TestForEachPreCanceledStartsNothing(t *testing.T) {
	noLeakedGoroutines(t)
	s := core.NewSession()
	s.Workers = 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 64
	for round := 0; round < 20; round++ {
		var calls atomic.Int64
		err := s.ForEach(ctx, n, func(int) error {
			calls.Add(1)
			return nil
		})
		if c := calls.Load(); c != 0 {
			t.Fatalf("round %d: fn called %d times under a canceled context", round, c)
		}
		var be *core.BatchError
		if !errors.As(err, &be) || len(be.Errs) != n || be.Failed != n {
			t.Fatalf("round %d: err = %v, want a *BatchError failing all %d indices", round, err, n)
		}
		for i, e := range be.Errs {
			if e != ctx.Err() {
				t.Fatalf("round %d: index %d failed with %v, want ctx.Err()", round, i, e)
			}
		}
	}
}

// TestRunBatchContextPartialOnCancel: a cancellation mid-batch keeps
// the completed jobs' results and fails only the interrupted ones, in
// their own slots. Job 0 is a memo hit (completed before the cancel);
// job 1 spins forever and is the one the cancel interrupts.
func TestRunBatchContextPartialOnCancel(t *testing.T) {
	noLeakedGoroutines(t)
	s := core.NewSession()
	s.Workers = 2
	sieve := apps.MustNew("sieve", app.Quick)
	fast := machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnLoad}
	if _, err := s.Run(sieve, fast); err != nil { // pre-warm: job 0 will memo-hit
		t.Fatal(err)
	}
	jobs := []core.Job{
		{App: sieve, Cfg: fast},
		{App: spinApp(), Cfg: machine.Config{Procs: 1, Threads: 1, Model: machine.SwitchOnLoad}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel once the spinner is simulating (the warmed job is a
		// map hit that completes in microseconds alongside it).
		for s.SimCount() < 2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	res, err := s.RunBatchContext(ctx, jobs)
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *BatchError", err, err)
	}
	if res[0] == nil || be.Errs[0] != nil {
		t.Errorf("completed job lost its result: res=%v err=%v", res[0], be.Errs[0])
	}
	if res[1] != nil {
		t.Error("canceled spinner returned a result")
	}
	if !errors.Is(be.Errs[1], context.Canceled) {
		t.Errorf("spinner err = %v, want context.Canceled", be.Errs[1])
	}
}

// TestFollowerRetriesAfterLeaderCancel: when the first caller for a
// configuration (the singleflight leader) is canceled, a concurrent
// caller with a live context must not inherit that cancellation — it
// retries the key and gets a real result.
func TestFollowerRetriesAfterLeaderCancel(t *testing.T) {
	noLeakedGoroutines(t)
	s := core.NewSession()
	sieve := apps.MustNew("sieve", app.Quick)
	// Heavy enough that the leader is still mid-run when canceled.
	cfg := machine.Config{Procs: 2, Threads: 4, Model: machine.SwitchEveryCycle, Latency: 400}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.RunContext(leaderCtx, sieve, cfg)
		leaderErr <- err
	}()
	for s.SimCount() < 1 { // leader is simulating
		time.Sleep(time.Millisecond)
	}

	followerRes := make(chan *machine.Result, 1)
	followerErrc := make(chan error, 1)
	go func() {
		r, err := s.RunContext(context.Background(), sieve, cfg)
		followerRes <- r
		followerErrc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the follower park on the leader's slot
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		// The leader may legitimately have finished before the cancel
		// landed; then the follower memo-hits and there is nothing to
		// retry — the property under test did not occur, skip.
		if err == nil {
			t.Skip("leader finished before cancellation; retry path not exercised")
		}
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if r, err := <-followerRes, <-followerErrc; err != nil || r == nil {
		t.Fatalf("follower inherited the leader's cancellation: res=%v err=%v", r, err)
	}
	if s.SimCount() != 2 {
		t.Errorf("SimCount = %d, want 2 (canceled leader + follower retry)", s.SimCount())
	}
}

// TestMTSearchContextCanceled: cancellation stops the search between
// waves with an error wrapping ctx.Err(); the levels slice keeps its
// target-aligned shape.
func TestMTSearchContextCanceled(t *testing.T) {
	noLeakedGoroutines(t)
	s := core.NewSession()
	sieve := apps.MustNew("sieve", app.Quick)
	if _, err := s.Baseline(sieve); err != nil { // warm so the sweep itself is what cancels
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	levels, _, _, err := s.MTSearchContext(ctx, sieve,
		machine.Config{Procs: 2, Model: machine.SwitchOnLoad}, core.EffTargets, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(levels) != len(core.EffTargets) {
		t.Errorf("levels len = %d, want %d", len(levels), len(core.EffTargets))
	}
	for i, l := range levels {
		if l != 0 {
			t.Errorf("levels[%d] = %d before any probe ran, want 0", i, l)
		}
	}
}
