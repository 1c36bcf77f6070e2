package net_test

import (
	"math/rand"
	"testing"

	"mtsim/internal/net"
)

// These are property tests for the fault model's contracts (the
// comments at the top of faults.go): delivery outcomes are a pure
// function of (Seed, access index), no access is ever lost permanently,
// and the recovery protocol's added delay is bounded by the
// timeout/backoff constants the latency implies.

const (
	propLatency  = 50
	propAccesses = 2000
)

// propCase is one fault configuration and the round trip each access
// hands Deliver.
type propCase struct {
	cfg net.FaultConfig
	lat func(k int) int64
}

// nominal is every access's round trip on the paper's constant network.
func nominal(int) int64 { return propLatency }

// propCases enumerates fault configurations spanning the parameter
// space: light and harsh rates, certain drops, half the attempts
// dropped (one retry per access on average), delays that the 4L
// timeout outlasts, and round trips that vary per access the way
// LatencyJitter and a routed network vary them: uniformly around the
// nominal latency, or four times it on every fifth access, which a
// delay then carries past the timeout.
func propCases() map[string]propCase {
	return map[string]propCase{
		"light": {net.FaultConfig{Enabled: true, Seed: 1,
			DropRate: 0.01, DupRate: 0.01, DelayRate: 0.02}, nominal},
		"harsh": {net.FaultConfig{Enabled: true, Seed: 99,
			DropRate: 0.4, DupRate: 0.3, DelayRate: 0.4}, nominal},
		"uniform": {net.FaultConfig{Enabled: true, Seed: 3, DropRate: 0.1, DelayRate: 0.1},
			func(k int) int64 { return propLatency - 40 + int64(k*37%81) }},
		"hot-spot": {net.FaultConfig{Enabled: true, Seed: 4, DropRate: 0.1, DupRate: 0.1, DelayRate: 0.1},
			func(k int) int64 {
				if k%5 == 0 {
					return 4 * propLatency
				}
				return propLatency
			}},
		"all-drops":    {net.FaultConfig{Enabled: true, Seed: 5, DropRate: 1}, nominal},
		"one-retry":    {net.FaultConfig{Enabled: true, Seed: 6, DropRate: 0.5}, nominal},
		"slow-timeout": {net.FaultConfig{Enabled: true, Seed: 7, DropRate: 0.3, DelayRate: 0.3}, nominal},
	}
}

// TestFaultPlanPurity asserts that the outcome of access k is a pure
// function of (Seed, k, lat): two plans with the same config yield
// bit-identical recovery overheads for every access index, even when
// their issue times differ wildly. This purity is what makes a faulted
// run memoizable and the parallel engine byte-identical at any width.
func TestFaultPlanPurity(t *testing.T) {
	for name, pc := range propCases() {
		cfg := pc.cfg
		t.Run(name, func(t *testing.T) {
			a := net.NewFaultPlan(cfg, propLatency)
			b := net.NewFaultPlan(cfg, propLatency)
			issueA, issueB := int64(0), int64(1_000_000)
			r := rand.New(rand.NewSource(int64(cfg.Seed)))
			for k := 0; k < propAccesses; k++ {
				// Different (and differently-spaced) issue times per plan:
				// only the relative outcome may depend on them.
				issueA += int64(r.Intn(100))
				issueB += int64(r.Intn(3))
				readyA := a.Deliver(issueA, pc.lat(k))
				readyB := b.Deliver(issueB, pc.lat(k))
				if readyA-issueA != readyB-issueB {
					t.Fatalf("access %d: round trip %d at issue %d but %d at issue %d; outcome must be pure in (seed, index)",
						k, readyA-issueA, issueA, readyB-issueB, issueB)
				}
				if a.LastOverhead() != b.LastOverhead() {
					t.Fatalf("access %d: overhead %d vs %d", k, a.LastOverhead(), b.LastOverhead())
				}
			}
			if a.Stats != b.Stats {
				t.Errorf("stats diverged:\n%+v\n%+v", a.Stats, b.Stats)
			}
		})
	}
}

// TestFaultPlanNeverLosesAccesses asserts the termination contract:
// every Deliver returns a finite ready cycle no earlier than a one-way
// trip could allow, even at DropRate 1 — the post-Retries attempt
// rides the escorted reliable path instead of retrying forever.
func TestFaultPlanNeverLosesAccesses(t *testing.T) {
	for name, pc := range propCases() {
		cfg := pc.cfg
		t.Run(name, func(t *testing.T) {
			f := net.NewFaultPlan(cfg, propLatency)
			for k := 0; k < propAccesses; k++ {
				issue := int64(k) * 17
				ready := f.Deliver(issue, pc.lat(k))
				if ready <= issue {
					t.Fatalf("access %d: ready %d <= issue %d; reply lost", k, ready, issue)
				}
			}
			if cfg.DropRate == 1 && f.Stats.Exhausted != propAccesses {
				t.Errorf("DropRate 1: %d of %d accesses exhausted; all should fall back to the escorted path",
					f.Stats.Exhausted, propAccesses)
			}
		})
	}
}

// TestFaultPlanDelayBounded asserts the worst-case delivery bound
// implied by the protocol constants: at most Retries timeouts each
// waiting Timeout + a capped backoff, plus the access's round trip and
// one in-timeout delay. LastOverhead must account for exactly the
// cycles beyond issue + round trip. A timeout without a drop is a
// spurious retry, and it happens exactly when some access's round trip
// plus the delay outlasts the timeout.
func TestFaultPlanDelayBounded(t *testing.T) {
	rec := net.RecoveryFor(propLatency)
	for name, pc := range propCases() {
		t.Run(name, func(t *testing.T) {
			f := net.NewFaultPlan(pc.cfg, propLatency)
			slow := false
			for k := 0; k < propAccesses; k++ {
				issue, lat := int64(k)*31, pc.lat(k)
				bound := int64(rec.Retries)*(rec.Timeout+rec.BackoffMax) + lat + rec.Delay
				ready := f.Deliver(issue, lat)
				if trip := ready - issue; trip > bound {
					t.Fatalf("access %d: round trip %d exceeds protocol bound %d", k, trip, bound)
				}
				ov := f.LastOverhead()
				if ov < 0 {
					t.Fatalf("access %d: negative recovery overhead %d", k, ov)
				}
				// The decomposition is exact: ready = issue + the access's
				// round trip + recovery overhead.
				if want := issue + lat + ov; ready != want {
					t.Fatalf("access %d: ready %d, want issue+lat+overhead = %d", k, ready, want)
				}
				slow = slow || lat+rec.Delay > rec.Timeout
			}
			if spurious := f.Stats.Timeouts - f.Stats.Drops; (spurious > 0) != (slow && pc.cfg.DelayRate > 0) {
				t.Errorf("%d spurious retries; round trips outlasting the timeout when delayed: %v", spurious, slow)
			}
		})
	}
}
