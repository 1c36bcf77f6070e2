package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// SchemaVersion identifies the JSON layout of RunMetrics and
// BatchMetrics. Bump it on any breaking change; the golden tests pin
// the layout so accidental drift fails CI.
const SchemaVersion = 1

// StateCycles is the per-state cycle breakdown of one timeline. Field
// order and JSON keys are part of the stable schema.
type StateCycles struct {
	Running       int64 `json:"running"`
	Switching     int64 `json:"context_switching"`
	StalledMem    int64 `json:"stalled_on_memory"`
	CacheHit      int64 `json:"cache_hit_continue"`
	Idle          int64 `json:"idle"`
	FaultRecovery int64 `json:"fault_recovery"`
}

// Total sums the states; for a settled timeline it equals the cycle
// count (times the processor count, for a machine-wide sum).
func (s *StateCycles) Total() int64 {
	return s.Running + s.Switching + s.StalledMem + s.CacheHit + s.Idle + s.FaultRecovery
}

// Busy is the useful-work share: running plus cache-hit-continue.
func (s *StateCycles) Busy() int64 { return s.Running + s.CacheHit }

// accumulate adds o into s.
func (s *StateCycles) accumulate(o *StateCycles) {
	s.Running += o.Running
	s.Switching += o.Switching
	s.StalledMem += o.StalledMem
	s.CacheHit += o.CacheHit
	s.Idle += o.Idle
	s.FaultRecovery += o.FaultRecovery
}

// Breakdown renders the states as "running=... switching=..." with
// utilization percentages of the given total (0 skips percentages).
func (s *StateCycles) Breakdown(total int64) string {
	var b strings.Builder
	parts := []struct {
		name string
		v    int64
	}{
		{"running", s.Running}, {"switching", s.Switching},
		{"stalled-mem", s.StalledMem}, {"cache-hit", s.CacheHit},
		{"idle", s.Idle}, {"fault-recovery", s.FaultRecovery},
	}
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		if total > 0 {
			fmt.Fprintf(&b, "%s=%d(%.1f%%)", p.name, p.v, 100*float64(p.v)/float64(total))
		} else {
			fmt.Fprintf(&b, "%s=%d", p.name, p.v)
		}
	}
	return b.String()
}

// ThreadMetrics is one thread context's settled timeline.
type ThreadMetrics struct {
	Thread int         `json:"thread"`
	States StateCycles `json:"states"`
}

// ProcMetrics is one processor's settled timeline plus its threads'.
type ProcMetrics struct {
	Proc    int             `json:"proc"`
	States  StateCycles     `json:"states"`
	Threads []ThreadMetrics `json:"threads"`
}

// Counters are the run-level event counts the observability layer
// tracks alongside the timelines.
type Counters struct {
	// Instrs is the number of instructions executed.
	Instrs int64 `json:"instrs"`
	// SwitchesTaken / SwitchesSkipped / SwitchesForced mirror the
	// context-switch accounting (taken, skipped-on-hit, run-limit
	// forced).
	SwitchesTaken   int64 `json:"switches_taken"`
	SwitchesSkipped int64 `json:"switches_skipped"`
	SwitchesForced  int64 `json:"switches_forced"`
	// RunLengthMean / RunLengthMax summarize the busy-cycles-between-
	// switches distribution (zero unless collected).
	RunLengthMean float64 `json:"run_length_mean"`
	RunLengthMax  int64   `json:"run_length_max"`
	// NetRoundTrips is Result.SharedLoads despite its name: every
	// shared load and Fetch-and-Add, cache hits included, not only the
	// round trips that waited on the network. NetMessages counts all
	// network messages.
	NetRoundTrips int64 `json:"net_round_trips"`
	NetMessages   int64 `json:"net_messages"`
	// FaultRetries / FaultTimeouts mirror the recovery protocol's
	// counters (zero on a clean network).
	FaultRetries  int64 `json:"fault_retries"`
	FaultTimeouts int64 `json:"fault_timeouts"`
}

// accumulate adds o into c. Run-length summaries are combined by
// keeping the max and a switch-weighted mean.
func (c *Counters) accumulate(o *Counters, selfW, oW int64) {
	if w := selfW + oW; w > 0 {
		c.RunLengthMean = (c.RunLengthMean*float64(selfW) + o.RunLengthMean*float64(oW)) / float64(w)
	}
	if o.RunLengthMax > c.RunLengthMax {
		c.RunLengthMax = o.RunLengthMax
	}
	c.Instrs += o.Instrs
	c.SwitchesTaken += o.SwitchesTaken
	c.SwitchesSkipped += o.SwitchesSkipped
	c.SwitchesForced += o.SwitchesForced
	c.NetRoundTrips += o.NetRoundTrips
	c.NetMessages += o.NetMessages
	c.FaultRetries += o.FaultRetries
	c.FaultTimeouts += o.FaultTimeouts
}

// RunMetrics is the observability record of one simulation run: the
// settled per-processor/per-thread timelines plus event counters. The
// JSON layout is the stable schema emitted by the -metrics flags.
type RunMetrics struct {
	Schema int `json:"schema"`
	// Program names the simulated program (the app kernel).
	Program string `json:"program"`
	// Model is the context-switch policy's name.
	Model string `json:"model"`
	// NumProcs/NumThreads echo the configuration; Cycles is the run
	// length the state totals are measured against.
	NumProcs   int   `json:"num_procs"`
	NumThreads int   `json:"num_threads"`
	Cycles     int64 `json:"cycles"`
	// States is the machine-wide sum over processors: its Total is
	// exactly NumProcs x Cycles.
	States StateCycles `json:"states"`
	// Procs holds the per-processor (and nested per-thread) timelines.
	Procs    []ProcMetrics `json:"per_proc"`
	Counters Counters      `json:"counters"`
}

// EngineMetrics describes the experiment engine's own work: how many
// simulations actually executed and how many were served from the
// session memo (including singleflight followers). The counts are
// independent of the worker-pool width.
type EngineMetrics struct {
	Sims     int64 `json:"sims"`
	MemoHits int64 `json:"memo_hits"`
}

// BatchMetrics aggregates the RunMetrics of every simulation a session
// executed, plus the engine's own counters.
type BatchMetrics struct {
	Schema int `json:"schema"`
	// Runs is the number of aggregated simulations (each unique
	// configuration counts once; memo hits share the original run).
	Runs     int           `json:"runs"`
	States   StateCycles   `json:"states"`
	Counters Counters      `json:"counters"`
	Engine   EngineMetrics `json:"engine"`
}

// Batch accumulates RunMetrics into a BatchMetrics. The zero value is
// ready to use; callers serialize Add themselves. Concurrent workers
// finish in nondeterministic order and the run-length mean folds in
// floating point, so Metrics sorts the recorded runs into a canonical
// order before folding: the aggregate is byte-identical regardless of
// arrival order, which the determinism fuzz tests pin across
// worker-pool widths.
type Batch struct {
	runs []*RunMetrics
}

// Add records one run for aggregation.
func (b *Batch) Add(rm *RunMetrics) {
	if rm == nil {
		return
	}
	b.runs = append(b.runs, rm)
}

// runLess orders runs canonically for the fold. Runs tied on every
// compared field are interchangeable in the fold (the only
// order-sensitive quantity is the (RunLengthMean, SwitchesTaken)
// weighted mean, and both appear in the key), so sort instability on
// ties cannot change the result.
func runLess(a, z *RunMetrics) bool {
	switch {
	case a.Program != z.Program:
		return a.Program < z.Program
	case a.Model != z.Model:
		return a.Model < z.Model
	case a.NumProcs != z.NumProcs:
		return a.NumProcs < z.NumProcs
	case a.NumThreads != z.NumThreads:
		return a.NumThreads < z.NumThreads
	case a.Cycles != z.Cycles:
		return a.Cycles < z.Cycles
	case a.Counters.Instrs != z.Counters.Instrs:
		return a.Counters.Instrs < z.Counters.Instrs
	case a.Counters.SwitchesTaken != z.Counters.SwitchesTaken:
		return a.Counters.SwitchesTaken < z.Counters.SwitchesTaken
	default:
		return a.Counters.RunLengthMean < z.Counters.RunLengthMean
	}
}

// Metrics snapshots the aggregate with the engine's counters attached.
func (b *Batch) Metrics(engine EngineMetrics) *BatchMetrics {
	runs := make([]*RunMetrics, len(b.runs))
	copy(runs, b.runs)
	sort.Slice(runs, func(i, j int) bool { return runLess(runs[i], runs[j]) })
	out := BatchMetrics{Schema: SchemaVersion, Engine: engine}
	for _, rm := range runs {
		selfW := out.Counters.SwitchesTaken
		out.Runs++
		out.States.accumulate(&rm.States)
		out.Counters.accumulate(&rm.Counters, selfW, rm.Counters.SwitchesTaken)
	}
	return &out
}

// WriteJSON marshals v (a *RunMetrics or *BatchMetrics) as indented
// JSON with a trailing newline — the on-disk format of the -metrics
// flags and the golden files.
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
