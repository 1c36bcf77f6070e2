package machine

import (
	"fmt"
	"strings"

	"mtsim/internal/metrics"
	"mtsim/internal/net"
	"mtsim/internal/stats"
)

// Result reports one simulation run.
type Result struct {
	Config Config
	// Cycles is the length of the forked phase: the cycle at which the
	// last thread halted.
	Cycles int64

	// Per-machine cycle accounting, summed over processors. For every
	// processor, Busy + Idle + SwitchOverhead == Cycles (a processor
	// that has finished all its threads counts Idle).
	Busy           int64
	Idle           int64
	SwitchOverhead int64

	// Instrs is the number of instructions executed (multi-cycle
	// instructions count once).
	Instrs int64
	// SharedLoads / SharedStores count dynamic shared accesses
	// (Fetch-and-Add counts as a load).
	SharedLoads  int64
	SharedStores int64

	// TakenSwitches counts context switches actually performed;
	// SkippedSwitches counts Switch instructions ignored because every
	// load of their group hit (conditional-switch) or nothing was
	// pending. ForcedSwitches counts run-limit overrides (§6.2).
	TakenSwitches   int64
	SkippedSwitches int64
	ForcedSwitches  int64

	// PreemptSwitches counts watchdog preemptions (Config.PreemptLimit).
	PreemptSwitches int64
	// SpinProbes counts executed spin-flagged shared accesses
	// (synchronization busy-waiting volume).
	SpinProbes int64
	// CritPreempts counts times the scheduler moved to a critical-region
	// thread in preference to (or instead of) the round-robin choice
	// (Config.CritPriority).
	CritPreempts int64

	// ImplicitWaits counts reads of still-pending registers outside a
	// Use/Switch — the hardware stalls correctly, but under
	// explicit-switch the optimizer should have prevented them, so
	// tests assert this stays zero for optimized programs.
	ImplicitWaits int64

	// RunLengths is the distribution of busy cycles between taken
	// context switches (only filled when Config.CollectRunLengths).
	RunLengths stats.Hist

	// Traffic is the network message accounting (spin traffic recorded
	// separately inside).
	Traffic net.Traffic

	// Cache statistics, aggregated over processors (cache models only).
	CacheHits   int64
	CacheMisses int64
	CacheInvals int64

	// Grouping-window statistics (§5.2 runs only).
	WindowHits   int64
	WindowProbes int64

	// Congestion-model observations (Config.Congestion runs only).
	NetPeakUtilization float64
	NetFinalLatency    int64

	// Topology-model observations (Config.Topology runs only): the
	// largest round trip routed, the worst per-link queueing delay, and
	// the number of round trips routed.
	TopoMaxLatency int64
	TopoPeakQueue  int64
	TopoRequests   int64

	// Faults is the fault-injection and recovery-protocol accounting
	// (Config.Faults runs only).
	Faults net.FaultStats

	// ProcBusy is the per-processor useful busy-cycle breakdown
	// (synchronization spinning excluded), for load balance analysis
	// (the paper's water discussion, §3.2).
	ProcBusy []int64

	// Metrics is the cycle-accounting observability record: exact
	// per-processor, per-thread state timelines plus counters. Only
	// filled when Config.CollectMetrics; nil otherwise.
	Metrics *metrics.RunMetrics
}

// Imbalance returns max/mean of per-processor busy cycles: 1.0 is a
// perfect static balance; water off its divisibility points shows the
// paper's erratic Figure 2 behaviour here.
func (r *Result) Imbalance() float64 {
	if len(r.ProcBusy) == 0 {
		return 0
	}
	var max, sum int64
	for _, b := range r.ProcBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.ProcBusy))
	return float64(max) / mean
}

// Utilization is the fraction of processor cycles spent executing
// instructions.
func (r *Result) Utilization() float64 {
	total := r.Cycles * int64(r.Config.Procs)
	if total == 0 {
		return 0
	}
	return float64(r.Busy) / float64(total)
}

// Efficiency returns the paper's efficiency metric given the cycle count
// of the one-processor zero-latency baseline run: speedup / processors =
// baseline / (P * cycles). A non-positive baseline or cycle count — a
// degenerate or failed baseline run — yields 0 rather than a zero,
// negative or NaN-propagating ratio.
func (r *Result) Efficiency(baselineCycles int64) float64 {
	if baselineCycles <= 0 || r.Cycles <= 0 || r.Config.Procs <= 0 {
		return 0
	}
	return float64(baselineCycles) / (float64(r.Cycles) * float64(r.Config.Procs))
}

// Speedup returns baseline / cycles, with the same degenerate-input
// guard as Efficiency.
func (r *Result) Speedup(baselineCycles int64) float64 {
	if baselineCycles <= 0 || r.Cycles <= 0 {
		return 0
	}
	return float64(baselineCycles) / float64(r.Cycles)
}

// CacheHitRate is the load hit fraction of the shared-data caches.
func (r *Result) CacheHitRate() float64 {
	t := r.CacheHits + r.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(t)
}

// WindowHitRate is the §5.2 grouping-window hit fraction.
func (r *Result) WindowHitRate() float64 {
	if r.WindowProbes == 0 {
		return 0
	}
	return float64(r.WindowHits) / float64(r.WindowProbes)
}

// MeanRunLength is the mean number of busy cycles between taken switches.
func (r *Result) MeanRunLength() float64 { return r.RunLengths.Mean() }

// GroupingFactor is the mean number of shared loads issued per taken
// context switch — the paper's "level of grouping achieved" (Table 4).
func (r *Result) GroupingFactor() float64 {
	if r.TakenSwitches == 0 {
		return 0
	}
	return float64(r.SharedLoads) / float64(r.TakenSwitches)
}

// BitsPerCycle is the per-processor network bandwidth demand (§6.1).
func (r *Result) BitsPerCycle() float64 {
	return r.Traffic.PerCycle(r.Cycles, r.Config.Procs)
}

// TrafficBreakdown renders the per-message-type network accounting.
func (r *Result) TrafficBreakdown() string {
	var b strings.Builder
	b.WriteString("message type  count  bits\n")
	for t := 0; t < net.NumMsgTypes; t++ {
		mt := net.MsgType(t)
		if r.Traffic.Count[mt] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %6d %6d\n", mt, r.Traffic.Count[mt], r.Traffic.BitsOf(mt))
	}
	if r.Traffic.SpinCount > 0 {
		fmt.Fprintf(&b, "%-12s %6d %6d (excluded from bandwidth)\n", "spin", r.Traffic.SpinCount, r.Traffic.SpinBits)
	}
	return b.String()
}

// Summary renders a human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s procs=%d threads=%d latency=%d\n",
		r.Config.Model, r.Config.Procs, r.Config.Threads, r.Config.Latency)
	fmt.Fprintf(&b, "cycles=%d instrs=%d utilization=%.3f\n", r.Cycles, r.Instrs, r.Utilization())
	fmt.Fprintf(&b, "busy=%d idle=%d switch-overhead=%d\n", r.Busy, r.Idle, r.SwitchOverhead)
	fmt.Fprintf(&b, "shared: loads=%d stores=%d\n", r.SharedLoads, r.SharedStores)
	fmt.Fprintf(&b, "switches: taken=%d skipped=%d forced=%d implicit-waits=%d\n",
		r.TakenSwitches, r.SkippedSwitches, r.ForcedSwitches, r.ImplicitWaits)
	if r.PreemptSwitches > 0 || r.SpinProbes > 0 || r.CritPreempts > 0 {
		fmt.Fprintf(&b, "scheduling: spin-probes=%d yields/watchdog=%d crit-preempts=%d imbalance=%.2f\n",
			r.SpinProbes, r.PreemptSwitches, r.CritPreempts, r.Imbalance())
	}
	if r.Config.Congestion.Enabled {
		fmt.Fprintf(&b, "network-model: peak-utilization=%.2f final-latency=%d\n",
			r.NetPeakUtilization, r.NetFinalLatency)
	}
	if r.Config.Topology.Enabled() {
		fmt.Fprintf(&b, "topology: kind=%s nodes=%d round-trips=%d max-latency=%d peak-queue=%d\n",
			r.Config.Topology.Kind, r.Config.Topology.Nodes, r.TopoRequests, r.TopoMaxLatency, r.TopoPeakQueue)
	}
	if r.Config.Faults.Enabled {
		fmt.Fprintf(&b, "faults: drops=%d dups=%d delays=%d timeouts=%d retries=%d backoff-cycles=%d exhausted=%d\n",
			r.Faults.Drops, r.Faults.Dups, r.Faults.Delays, r.Faults.Timeouts,
			r.Faults.Retries, r.Faults.BackoffCycles, r.Faults.Exhausted)
	}
	if r.RunLengths.N > 0 {
		fmt.Fprintf(&b, "run-length: mean=%.1f max=%d grouping=%.2f\n",
			r.MeanRunLength(), r.RunLengths.Max, r.GroupingFactor())
	}
	if r.Config.Model.UsesCache() {
		fmt.Fprintf(&b, "cache: hits=%d misses=%d rate=%.3f invals=%d\n",
			r.CacheHits, r.CacheMisses, r.CacheHitRate(), r.CacheInvals)
	}
	if r.WindowProbes > 0 {
		fmt.Fprintf(&b, "group-window: hits=%d probes=%d rate=%.3f\n",
			r.WindowHits, r.WindowProbes, r.WindowHitRate())
	}
	fmt.Fprintf(&b, "network: %.3f bits/cycle (%d msgs, spin excluded: %d msgs)\n",
		r.BitsPerCycle(), r.Traffic.Messages(), r.Traffic.SpinCount)
	return b.String()
}
