package net

import (
	"fmt"

	"mtsim/internal/rng"
)

// This file models what the paper's §3 machine assumes away: an
// unreliable, non-uniform network. Replies can be late, lost or
// duplicated, and the requester runs a recovery protocol — timeout,
// NACK-retry with capped exponential backoff, sequence-number
// deduplication. Everything is drawn from a seeded rng stream, so a
// faulted run is exactly as deterministic (and memoizable) as a clean
// one: delivery outcomes are a pure function of (Seed, access sequence
// number).

// FaultConfig parameterizes fault injection for shared-memory round
// trips. It is a flat comparable value: machine configs embed it and the
// session memo uses the whole config as a map key, so a (seed, rates)
// plan memoizes like any other parameter. The zero value disables the
// model entirely — the paper's perfect network — and every added field
// must keep the struct comparable. The recovery protocol's constants
// are not configured: they follow from the nominal latency (Recovery).
type FaultConfig struct {
	// Enabled turns the model on.
	Enabled bool
	// Seed seeds the deterministic fault stream: equal seeds and configs
	// give bit-identical runs.
	Seed uint64
	// DropRate is the probability a reply is lost; the requester times
	// out and NACK-retries with capped exponential backoff.
	DropRate float64
	// DupRate is the probability the network duplicates a reply; the
	// extra copy is discarded by sequence-number deduplication.
	DupRate float64
	// DelayRate is the probability a reply is held up Recovery.Delay
	// extra cycles (a misrouted packet); a delay past Recovery.Timeout
	// triggers a spurious retry and the late original is deduplicated on
	// arrival.
	DelayRate float64
}

// Validate reports configuration errors. A disabled config is always
// valid, mirroring CongestionConfig.
func (c FaultConfig) Validate() error {
	if c.Enabled && !(rate01(c.DropRate) && rate01(c.DupRate) && rate01(c.DelayRate)) {
		return fmt.Errorf("net: fault rates must be in [0,1] (drop=%v dup=%v delay=%v)",
			c.DropRate, c.DupRate, c.DelayRate)
	}
	return nil
}

func rate01(r float64) bool { return r >= 0 && r <= 1 }

// Recovery is the requester's recovery protocol for a machine whose
// nominal round trip is L cycles (clamped to at least 1): a delayed
// reply arrives Delay = L late, the requester times out after Timeout =
// 4L, and each retry waits a backoff that starts at BackoffBase = ⌈L/2⌉
// and doubles up to BackoffMax = 8L. After Retries = 8 retries the next
// attempt rides the reliable escorted path and always delivers, so
// every access completes and runs terminate.
type Recovery struct {
	Delay, Timeout, BackoffBase, BackoffMax int64
	Retries                                 int
}

// RecoveryFor derives the protocol for a nominal round trip of latency
// cycles.
func RecoveryFor(latency int) Recovery {
	l := int64(max(latency, 1))
	return Recovery{Delay: l, Timeout: 4 * l, BackoffBase: (l + 1) / 2, BackoffMax: 8 * l, Retries: 8}
}

// FaultStats counts what the plan injected and what the recovery
// protocol did about it.
type FaultStats struct {
	// Drops counts replies lost in the network.
	Drops int64
	// Dups counts duplicate replies discarded by sequence-number dedup
	// (network duplicates plus late originals after a spurious retry).
	Dups int64
	// Delays counts replies held up Recovery.Delay.
	Delays int64
	// Timeouts counts requester timeouts, spurious ones included.
	Timeouts int64
	// Retries counts NACK-retries issued.
	Retries int64
	// BackoffCycles is the total backoff wait the protocol added.
	BackoffCycles int64
	// Exhausted counts accesses that fell back to the escorted path
	// after Recovery.Retries.
	Exhausted int64
}

// FaultPlan is the per-run runtime: a deterministic schedule of faults
// drawn from a seeded rng stream, plus the requester-side recovery
// protocol. It is owned by one simulation and is not safe for
// concurrent use.
type FaultPlan struct {
	cfg  FaultConfig
	rec  Recovery
	root *rng.R
	seq  uint64
	// lastOverhead is the recovery overhead of the most recent Deliver:
	// how many cycles the timeout/retry/backoff protocol added beyond
	// the network round trip itself.
	lastOverhead int64

	// Stats accumulates this run's fault and recovery counts.
	Stats FaultStats
}

// NewFaultPlan builds the runtime for one simulation; latency is the
// machine's nominal round trip, from which the protocol follows
// (RecoveryFor).
func NewFaultPlan(cfg FaultConfig, latency int) *FaultPlan {
	return &FaultPlan{cfg: cfg, rec: RecoveryFor(latency), root: rng.New(cfg.Seed)}
}

// Deliver returns the cycle at which the reply for a shared access
// issued at cycle issue reaches the requester, after injecting this
// access's scheduled faults and walking the recovery protocol. lat is
// the access's own round trip: on a routed or congested network it can
// exceed the nominal latency the protocol was derived from, so a
// delayed reply can outlast the timeout. All bookkeeping happens at
// issue time: the simulator's split-phase scoreboard only needs the
// final completion cycle, exactly as with plain latency, so the event
// loop is untouched.
func (f *FaultPlan) Deliver(issue, lat int64) int64 {
	r := f.root.Fork(f.seq)
	f.seq++
	start := issue
	backoff := f.rec.BackoffBase
	for attempt := 0; attempt < f.rec.Retries; attempt++ {
		if f.cfg.DropRate > 0 && r.Float() < f.cfg.DropRate {
			// Reply lost: the requester's timeout fires and it
			// NACK-retries after the current backoff.
			f.Stats.Drops++
			start = f.retryAfter(start, &backoff)
			continue
		}
		ready := start + lat
		if f.cfg.DelayRate > 0 && r.Float() < f.cfg.DelayRate {
			f.Stats.Delays++
			ready += f.rec.Delay
			if ready-start > f.rec.Timeout {
				// So late the requester had already timed out: the retry
				// is spurious and the late original becomes a duplicate,
				// discarded by its sequence number on arrival.
				f.Stats.Dups++
				start = f.retryAfter(start, &backoff)
				continue
			}
		}
		if f.cfg.DupRate > 0 && r.Float() < f.cfg.DupRate {
			// The network duplicated the reply; dedup drops the copy.
			// No timing effect: the first copy carries the data.
			f.Stats.Dups++
		}
		f.lastOverhead = ready - (issue + lat)
		return ready
	}
	// Retry budget exhausted: the final attempt rides the escorted
	// reliable path, so every access completes and runs terminate.
	f.Stats.Exhausted++
	f.lastOverhead = start - issue
	return start + lat
}

// LastOverhead reports how many cycles the recovery protocol (timeouts,
// retries, backoff, in-timeout delays) added to the most recent Deliver
// beyond its network round trip. The cycle-accounting layer books this
// as fault-recovery time.
func (f *FaultPlan) LastOverhead() int64 { return f.lastOverhead }

// retryAfter charges one timeout + backoff and returns the reissue
// cycle, doubling the backoff up to the cap.
func (f *FaultPlan) retryAfter(start int64, backoff *int64) int64 {
	f.Stats.Timeouts++
	f.Stats.Retries++
	f.Stats.BackoffCycles += *backoff
	next := start + f.rec.Timeout + *backoff
	*backoff = min(*backoff*2, f.rec.BackoffMax)
	return next
}
