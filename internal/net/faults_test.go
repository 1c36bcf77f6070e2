package net

import (
	"math"
	"testing"
)

// TestFaultConfigDefaults: the recovery protocol follows from the
// nominal latency, clamped to at least one cycle.
func TestFaultConfigDefaults(t *testing.T) {
	want := Recovery{Delay: 200, Timeout: 800, BackoffBase: 100, BackoffMax: 1600, Retries: 8}
	if got := RecoveryFor(200); got != want {
		t.Errorf("RecoveryFor(200) = %+v, want %+v", got, want)
	}
	want = Recovery{Delay: 1, Timeout: 4, BackoffBase: 1, BackoffMax: 8, Retries: 8}
	for _, l := range []int{1, 0, -5} {
		if got := RecoveryFor(l); got != want {
			t.Errorf("RecoveryFor(%d) = %+v, want %+v", l, got, want)
		}
	}
	if got := RecoveryFor(7).BackoffBase; got != 4 {
		t.Errorf("odd latency backoff base %d, want ceil(7/2) = 4", got)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	if err := (FaultConfig{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	bad := []FaultConfig{
		{Enabled: true, DropRate: 1.5},
		{Enabled: true, DupRate: -0.1},
		{Enabled: true, DelayRate: 2},
		{Enabled: true, DropRate: math.NaN()},
		{Enabled: true, DelayRate: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): accepted", i, c)
		}
	}
	if err := (FaultConfig{Enabled: true, DropRate: 0.5, DupRate: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestDeliverCleanPath: with every knob at zero an enabled plan is
// timing-neutral — reply at issue+lat, no stats.
func TestDeliverCleanPath(t *testing.T) {
	f := NewFaultPlan(FaultConfig{Enabled: true, Seed: 3}, 200)
	for i := int64(0); i < 100; i++ {
		if got := f.Deliver(i*10, 200); got != i*10+200 {
			t.Fatalf("Deliver(%d, 200) = %d, want %d", i*10, got, i*10+200)
		}
	}
	if f.Stats != (FaultStats{}) {
		t.Errorf("clean plan accumulated stats: %+v", f.Stats)
	}
}

// TestDeliverDeterministic: two plans with the same seed produce the
// same delivery schedule; a different seed produces a different one.
func TestDeliverDeterministic(t *testing.T) {
	cfg := FaultConfig{Enabled: true, Seed: 7, DropRate: 0.3, DupRate: 0.2, DelayRate: 0.2}
	a, b := NewFaultPlan(cfg, 100), NewFaultPlan(cfg, 100)
	diffSeed := cfg
	diffSeed.Seed = 8
	c := NewFaultPlan(diffSeed, 100)
	divergent := false
	for i := int64(0); i < 500; i++ {
		va, vb := a.Deliver(i, 100), b.Deliver(i, 100)
		if va != vb {
			t.Fatalf("access %d: same seed delivered at %d vs %d", i, va, vb)
		}
		if c.Deliver(i, 100) != va {
			divergent = true
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("same seed, different stats: %+v vs %+v", a.Stats, b.Stats)
	}
	if !divergent {
		t.Error("different seed never changed a delivery time")
	}
}

// TestDeliverDropRetriesWithBackoff: with DropRate 1 every attempt is
// lost; the plan must walk exactly Retries timeouts with doubling,
// capped backoff, then deliver on the escorted path.
func TestDeliverDropRetriesWithBackoff(t *testing.T) {
	f := NewFaultPlan(FaultConfig{Enabled: true, Seed: 1, DropRate: 1}, 100)
	got := f.Deliver(1000, 100)
	// Eight timeouts of 400 each; backoffs 50, 100, 200, 400, 800, then
	// capped at 800 three times.
	wantBackoff := int64(50 + 100 + 200 + 400 + 4*800)
	want := 1000 + 8*400 + wantBackoff + 100
	if got != want {
		t.Errorf("Deliver = %d, want %d", got, want)
	}
	st := f.Stats
	if st.Drops != 8 || st.Timeouts != 8 || st.Retries != 8 || st.Exhausted != 1 {
		t.Errorf("stats = %+v, want 8 drops/timeouts/retries and 1 exhausted", st)
	}
	if st.BackoffCycles != wantBackoff {
		t.Errorf("BackoffCycles = %d, want %d", st.BackoffCycles, wantBackoff)
	}
}

// TestDeliverDelayAndDup: a delayed reply inside the timeout arrives
// late but is not retried; a delay past the timeout forces a spurious
// retry and dedups the late original.
func TestDeliverDelayAndDup(t *testing.T) {
	// Delay within the timeout window: +Delay (the nominal 100), no
	// retry.
	in := NewFaultPlan(FaultConfig{Enabled: true, Seed: 1, DelayRate: 1}, 100)
	if got := in.Deliver(0, 100); got != 200 {
		t.Errorf("delayed reply at %d, want 200", got)
	}
	if in.Stats.Delays != 1 || in.Stats.Retries != 0 {
		t.Errorf("in-window delay stats: %+v", in.Stats)
	}

	// Delay past the timeout: a congested route's round trip of 350
	// plus the delay of 100 outlasts the 400-cycle timeout, so the
	// retry is spurious and the late original is deduped. Every attempt
	// is delayed, so the retries exhaust and the escorted attempt
	// delivers at start+lat.
	over := NewFaultPlan(FaultConfig{Enabled: true, Seed: 1, DelayRate: 1}, 100)
	got := over.Deliver(0, 350)
	want := int64(8*400 + 50 + 100 + 200 + 400 + 4*800 + 350)
	if got != want {
		t.Errorf("over-timeout delivery at %d, want %d", got, want)
	}
	st := over.Stats
	if st.Timeouts != 8 || st.Dups != 8 || st.Delays != 8 || st.Exhausted != 1 {
		t.Errorf("over-timeout stats: %+v", st)
	}

	// Pure duplication: no timing effect, counted once per duplicate.
	dup := NewFaultPlan(FaultConfig{Enabled: true, Seed: 1, DupRate: 1}, 100)
	if got := dup.Deliver(7, 100); got != 107 {
		t.Errorf("duplicated reply at %d, want 107", got)
	}
	if dup.Stats.Dups != 1 {
		t.Errorf("dup stats: %+v", dup.Stats)
	}
}

// TestDeliverRatesApproximate: observed drop frequency tracks the
// configured rate (the rng stream is uniform enough per access).
func TestDeliverRatesApproximate(t *testing.T) {
	f := NewFaultPlan(FaultConfig{Enabled: true, Seed: 11, DropRate: 0.2}, 100)
	var attempts int64
	const n = 20000
	for i := int64(0); i < n; i++ {
		before := f.Stats.Drops
		f.Deliver(i, 100)
		// An access draws until one attempt survives or the retries run
		// out; every draw but a surviving one is a drop.
		attempts += f.Stats.Drops - before
		if f.Stats.Drops-before < 8 {
			attempts++
		}
	}
	frac := float64(f.Stats.Drops) / float64(attempts)
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("observed drop rate %.3f over %d attempts, want ~0.2", frac, attempts)
	}
}
