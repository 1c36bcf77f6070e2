package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateRunning:       "running",
		StateSwitching:     "context-switching",
		StateStalledMem:    "stalled-on-memory",
		StateCacheHit:      "cache-hit-continue",
		StateIdle:          "idle",
		StateFaultRecovery: "fault-recovery",
		State(-1):          "state(?)",
		NumStates:          "state(?)",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, name)
		}
	}
}

// TestAcctGapClassification walks addGap through its cases: a pure
// stall, a stall/ready split at the wake cycle, fault debt converting
// the leading stall cycles, and a wake earlier than the accounted
// frontier (the whole gap is ready-waiting).
func TestAcctGapClassification(t *testing.T) {
	var a acct

	// [0, 10) ending at an execution, woken at 10: all stall.
	a.addGap(10, 10)
	if a.states[StateStalledMem] != 10 || a.states[StateIdle] != 0 {
		t.Fatalf("pure stall: %v", a.states)
	}

	// [10, 30) with wake at 15: 5 stalled, 15 ready-waiting.
	a.addGap(30, 15)
	if a.states[StateStalledMem] != 15 || a.states[StateIdle] != 15 {
		t.Fatalf("split gap: %v", a.states)
	}

	// Debt of 3 converts the head of the next 10-cycle stall.
	a.faultDebt = 3
	a.addGap(40, 40)
	if a.states[StateFaultRecovery] != 3 || a.states[StateStalledMem] != 22 {
		t.Fatalf("debt split: %v", a.states)
	}
	if a.faultDebt != 0 {
		t.Fatalf("debt not consumed: %d", a.faultDebt)
	}

	// Debt larger than the stall carries the remainder forward.
	a.faultDebt = 100
	a.addGap(45, 45)
	if a.states[StateFaultRecovery] != 8 || a.faultDebt != 95 {
		t.Fatalf("debt carry: states=%v debt=%d", a.states, a.faultDebt)
	}
	a.faultDebt = 0

	// Wake before the frontier: the whole gap is ready-waiting.
	a.addGap(55, 20)
	if a.states[StateIdle] != 25 {
		t.Fatalf("early wake: %v", a.states)
	}

	// A no-op gap changes nothing.
	before := a.states
	a.addGap(55, 55)
	a.addGap(40, 40)
	if a.states != before {
		t.Fatalf("no-op gap mutated states: %v", a.states)
	}

	if a.states[StateRunning]+a.states[StateSwitching]+a.states[StateStalledMem]+
		a.states[StateCacheHit]+a.states[StateIdle]+a.states[StateFaultRecovery] != a.lastEnd {
		t.Fatalf("states do not sum to the frontier %d: %v", a.lastEnd, a.states)
	}
}

// TestAcctCloseTrim exercises close's two directions: padding trailing
// idle, and trimming an overshoot in the documented state order
// (switching first, stalled-mem last).
func TestAcctCloseTrim(t *testing.T) {
	var a acct
	a.addExec(0, 4, 2, false) // running 4, switching 2, frontier 6
	a.close(10)
	if a.states[StateIdle] != 4 || a.lastEnd != 10 {
		t.Fatalf("pad: %v end=%d", a.states, a.lastEnd)
	}

	// Overshoot of 5 eats switching (2) then cache-hit (0) then
	// running (3 of 4).
	a = acct{}
	a.addExec(0, 4, 2, false)
	a.close(1)
	if a.states[StateSwitching] != 0 || a.states[StateRunning] != 1 {
		t.Fatalf("trim order: %v", a.states)
	}
	if sum := a.states[StateRunning] + a.states[StateSwitching]; sum != 1 || a.lastEnd != 1 {
		t.Fatalf("trim total: %v end=%d", a.states, a.lastEnd)
	}

	// A cache hit books the cost under cache-hit-continue instead.
	a = acct{}
	a.addExec(0, 3, 0, true)
	if a.states[StateCacheHit] != 3 || a.states[StateRunning] != 0 {
		t.Fatalf("hit exec: %v", a.states)
	}
}

// TestCollectorExactness drives a small synthetic schedule through the
// public Collector API and asserts the package's core guarantee: every
// settled timeline sums to exactly the end cycle.
func TestCollectorExactness(t *testing.T) {
	c := NewCollector(2, 2)

	// Proc 0, thread 0 runs at 0 for 3 cycles + 1 switch cycle.
	c.BeginExec(0, 0, 0, 0)
	c.EndExec(0, 0, 0, 3, 1)
	// Thread 1 was ready since 2, runs at 4, hits the cache.
	c.BeginExec(0, 1, 4, 2)
	c.MarkHit()
	c.EndExec(0, 1, 4, 1, 0)
	// Thread 0 stalls on memory with fault debt, resumes at 20.
	c.AddFaultDebt(0, 0, 6)
	c.AddFaultDebt(0, 0, 0) // no-op
	c.BeginExec(0, 0, 20, 18)
	c.EndExec(0, 0, 20, 2, 0)
	// Proc 1 never runs: all idle after close.

	rm := c.Finish(30)
	if rm.Schema != SchemaVersion || rm.Cycles != 30 {
		t.Fatalf("header: %+v", rm)
	}
	if want := int64(2 * 30); rm.States.Total() != want {
		t.Fatalf("machine total %d, want %d", rm.States.Total(), want)
	}
	for _, pm := range rm.Procs {
		if pm.States.Total() != 30 {
			t.Errorf("proc %d total %d, want 30", pm.Proc, pm.States.Total())
		}
		var threadSum StateCycles
		for _, tm := range pm.Threads {
			if tm.States.Total() != 30 {
				t.Errorf("proc %d thread %d total %d, want 30", pm.Proc, tm.Thread, tm.States.Total())
			}
			threadSum.accumulate(&tm.States)
		}
		if threadSum.Busy() != pm.States.Busy() {
			t.Errorf("proc %d: thread busy %d != proc busy %d", pm.Proc, threadSum.Busy(), pm.States.Busy())
		}
	}
	if rm.Procs[1].States.Idle != 30 {
		t.Errorf("idle proc: %+v", rm.Procs[1].States)
	}
	if rm.States.FaultRecovery == 0 || rm.States.CacheHit == 0 || rm.States.StalledMem == 0 {
		t.Errorf("synthetic schedule left a state empty: %+v", rm.States)
	}
}

// TestSummedExecEqualsPerInstructionHooks: the compiled engine accounts
// a fused chain as one BeginExec/EndExec pair of the chain's summed
// cost, which must leave the collector in exactly the state of one pair
// per instruction at back-to-back issue cycles, whatever came before it
// (switch overshoot, fault debt, cache hits, stalls and ready-waiting
// gaps on either timeline).
func TestSummedExecEqualsPerInstructionHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		perInstr, bulk := NewCollector(2, 3), NewCollector(2, 3)
		now := int64(0)
		for ev := 0; ev < 20; ev++ {
			p, th := rng.Intn(2), rng.Intn(3)
			now += int64(rng.Intn(6))
			wake := now - int64(rng.Intn(8))
			if rng.Intn(4) == 0 {
				debt := int64(rng.Intn(5))
				perInstr.AddFaultDebt(p, th, debt)
				bulk.AddFaultDebt(p, th, debt)
			}
			if rng.Intn(2) == 0 {
				// A chain of 1-8 instructions of 1-3 cycles each.
				var cost int64
				for i, n := 0, 1+rng.Intn(8); i < n; i++ {
					c := int64(1 + rng.Intn(3))
					perInstr.BeginExec(p, th, now+cost, wake)
					perInstr.EndExec(p, th, now+cost, c, 0)
					cost += c
				}
				bulk.BeginExec(p, th, now, wake)
				bulk.EndExec(p, th, now, cost, 0)
				now += cost
				continue
			}
			// A single interpreted instruction, maybe a hit or a switch.
			cost, sw, hit := int64(1+rng.Intn(3)), int64(rng.Intn(3)), rng.Intn(3) == 0
			for _, c := range []*Collector{perInstr, bulk} {
				c.BeginExec(p, th, now, wake)
				if hit {
					c.MarkHit()
				}
				c.EndExec(p, th, now, cost, sw)
			}
		}
		if !reflect.DeepEqual(perInstr, bulk) {
			t.Fatalf("iteration %d: collector states differ:\nper-instruction: %+v\nbulk:            %+v", iter, perInstr, bulk)
		}
		end := now + int64(rng.Intn(4))
		if a, b := perInstr.Finish(end), bulk.Finish(end); !reflect.DeepEqual(a, b) {
			t.Fatalf("iteration %d: metrics differ:\nper-instruction: %+v\nbulk:            %+v", iter, a, b)
		}
	}
}

func TestStateCyclesHelpers(t *testing.T) {
	s := StateCycles{Running: 10, Switching: 2, StalledMem: 3, CacheHit: 4, Idle: 1, FaultRecovery: 5}
	if s.Total() != 25 {
		t.Errorf("Total = %d, want 25", s.Total())
	}
	if s.Busy() != 14 {
		t.Errorf("Busy = %d, want 14", s.Busy())
	}
	withPct := s.Breakdown(25)
	if !strings.Contains(withPct, "running=10(40.0%)") || !strings.Contains(withPct, "fault-recovery=5(20.0%)") {
		t.Errorf("Breakdown(25) = %q", withPct)
	}
	bare := s.Breakdown(0)
	if !strings.Contains(bare, "running=10") || strings.Contains(bare, "%") {
		t.Errorf("Breakdown(0) = %q", bare)
	}
}

func TestCountersAccumulateWeightedMean(t *testing.T) {
	var c Counters
	c.accumulate(&Counters{RunLengthMean: 10, RunLengthMax: 7, SwitchesTaken: 2, Instrs: 100}, 0, 2)
	c.accumulate(&Counters{RunLengthMean: 4, RunLengthMax: 3, SwitchesTaken: 6, Instrs: 50}, 2, 6)
	if want := (10.0*2 + 4.0*6) / 8; c.RunLengthMean != want {
		t.Errorf("weighted mean = %v, want %v", c.RunLengthMean, want)
	}
	if c.RunLengthMax != 7 || c.SwitchesTaken != 8 || c.Instrs != 150 {
		t.Errorf("sums: %+v", c)
	}
	// Zero total weight leaves the mean untouched.
	before := c.RunLengthMean
	c.accumulate(&Counters{RunLengthMean: 99}, 0, 0)
	if c.RunLengthMean != before {
		t.Errorf("zero-weight fold changed the mean: %v", c.RunLengthMean)
	}
}

// TestBatchOrderInvariance is the unit-level version of the engine's
// byte-identical contract: folding the same runs in any arrival order
// yields an identical aggregate, including the float RunLengthMean.
func TestBatchOrderInvariance(t *testing.T) {
	mk := func(prog string, cycles int64, mean float64, taken int64) *RunMetrics {
		return &RunMetrics{
			Schema: SchemaVersion, Program: prog, Model: "switch-on-load",
			NumProcs: 2, NumThreads: 2, Cycles: cycles,
			States:   StateCycles{Running: cycles, Idle: cycles},
			Counters: Counters{Instrs: cycles, RunLengthMean: mean, SwitchesTaken: taken},
		}
	}
	runs := []*RunMetrics{
		mk("sieve", 100, 3.5, 10), mk("sor", 300, 1.25, 40),
		mk("sieve", 200, 2.0, 30), mk("water", 50, 9.0, 5),
	}
	engine := EngineMetrics{Sims: 4, MemoHits: 1}

	var want []byte
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := r.Perm(len(runs))
		var b Batch
		b.Add(nil) // ignored
		for _, i := range perm {
			b.Add(runs[i])
		}
		bm := b.Metrics(engine)
		if bm.Runs != len(runs) || bm.Engine != engine {
			t.Fatalf("aggregate header: %+v", bm)
		}
		got, err := json.Marshal(bm)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("order %v changed the aggregate:\n%s\nvs\n%s", perm, got, want)
		}
	}
}

func TestWriteJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &BatchMetrics{Schema: SchemaVersion}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "}\n") {
		t.Errorf("missing trailing newline: %q", out)
	}
	if !strings.Contains(out, "\n  \"runs\": 0") {
		t.Errorf("not two-space indented: %q", out)
	}
	var round BatchMetrics
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Errorf("output does not round-trip: %v", err)
	}
	// Unmarshalable values surface as errors, not panics.
	if err := WriteJSON(&buf, func() {}); err == nil {
		t.Error("WriteJSON(func) did not error")
	}
}
