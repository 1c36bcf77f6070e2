package machine_test

import (
	"errors"
	"strings"
	"testing"

	"mtsim/internal/machine"
	"mtsim/internal/net"
	"mtsim/internal/prog"
)

// TestFaultPathStrictlyAdditive: a zero-valued Faults field must change
// nothing — same cycles, same instruction count, same summary — as the
// seed code path, which is what keeps memoized clean results valid.
func TestFaultPathStrictlyAdditive(t *testing.T) {
	p := buildCounter(50)
	cfg := machine.Config{Procs: 4, Threads: 3, Model: machine.SwitchOnUse}
	base, err := machine.Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	withZero := cfg
	withZero.Faults = net.FaultConfig{} // explicit zero value
	got, err := machine.Run(withZero, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != base.Cycles || got.Instrs != base.Instrs || got.Summary() != base.Summary() {
		t.Errorf("zero Faults changed the run: %d/%d cycles, %d/%d instrs",
			got.Cycles, base.Cycles, got.Instrs, base.Instrs)
	}
}

// TestFaultedRunDeterministic: same seed, same schedule — bit-identical
// results; a different seed perturbs the timing.
func TestFaultedRunDeterministic(t *testing.T) {
	p := buildCounter(50)
	cfg := machine.Config{
		Procs: 4, Threads: 3, Model: machine.SwitchOnUse, LatencyJitter: 40,
		Faults: net.FaultConfig{
			Enabled: true, Seed: 17,
			DropRate: 0.1, DupRate: 0.1, DelayRate: 0.1,
		},
	}
	a, err := machine.Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.Run(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Faults != b.Faults || a.Summary() != b.Summary() {
		t.Errorf("same seed diverged: cycles %d vs %d, stats %+v vs %+v",
			a.Cycles, b.Cycles, a.Faults, b.Faults)
	}
	other := cfg
	other.Faults.Seed = 18
	c, err := machine.Run(other, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles == a.Cycles && c.Faults == a.Faults {
		t.Error("different fault seed produced an identical run")
	}
}

// TestFaultedRunStillCorrect: heavy faults slow the machine down but
// must never corrupt it — the counter still reaches its exact value and
// the recovery protocol visibly fired.
func TestFaultedRunStillCorrect(t *testing.T) {
	const n = 40
	p := buildCounter(n)
	// switch-on-load blocks the issuing thread until the reply returns,
	// so injected drops and delays are visible in the cycle count.
	cfg := machine.Config{
		Procs: 4, Threads: 2, Model: machine.SwitchOnLoad, Latency: 100,
		Faults: net.FaultConfig{
			Enabled: true, Seed: 5,
			DropRate: 0.3, DupRate: 0.2, DelayRate: 0.2,
		},
	}
	clean := cfg
	clean.Faults = net.FaultConfig{}
	base, err := machine.Run(clean, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.RunChecked(cfg, p, nil, func(sh *machine.Shared) error {
		want := int64(cfg.Procs) * int64(cfg.Threads) * n
		if got := sh.WordAt("counter", 0); got != want {
			t.Errorf("counter = %d, want %d", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Faults
	if st.Drops == 0 || st.Timeouts == 0 || st.Retries == 0 || st.BackoffCycles == 0 {
		t.Errorf("30%% drop rate left no recovery trace: %+v", st)
	}
	if res.Cycles <= base.Cycles {
		t.Errorf("faulted run (%d cycles) not slower than clean (%d)", res.Cycles, base.Cycles)
	}
	if !strings.Contains(res.Summary(), "faults:") {
		t.Error("Summary omits the faults line for a faulted run")
	}
	if strings.Contains(base.Summary(), "faults:") {
		t.Error("Summary shows a faults line for a clean run")
	}
}

// TestFaultStallClassified: a run that blows MaxCycles while the
// recovery protocol is retrying is reported as ErrFaultStall (which
// still matches ErrMaxCycles), while a plain livelock stays a plain
// ErrMaxCycles.
func TestFaultStallClassified(t *testing.T) {
	p := buildCounter(1000)
	cfg := machine.Config{
		Procs: 2, Threads: 2, Model: machine.SwitchOnLoad, Latency: 100,
		MaxCycles: 5000,
		Faults:    net.FaultConfig{Enabled: true, Seed: 1, DropRate: 1},
	}
	_, err := machine.Run(cfg, p, nil)
	if !errors.Is(err, machine.ErrFaultStall) {
		t.Errorf("err = %v, want ErrFaultStall", err)
	}
	if !errors.Is(err, machine.ErrMaxCycles) {
		t.Errorf("ErrFaultStall does not match ErrMaxCycles: %v", err)
	}

	// A genuine livelock without faults keeps the plain verdict.
	b := prog.NewBuilder("spin-forever")
	b.Shared("x", 1)
	b.Label("loop")
	b.J("loop")
	_, err = machine.Run(machine.Config{Model: machine.Ideal, MaxCycles: 1000}, b.MustBuild(), nil)
	if !errors.Is(err, machine.ErrMaxCycles) || errors.Is(err, machine.ErrFaultStall) {
		t.Errorf("plain livelock misclassified: %v", err)
	}
}

// TestFaultConfigRejected: invalid fault configs and fault injection on
// the ideal machine are refused up front.
func TestFaultConfigRejected(t *testing.T) {
	p := buildCounter(1)
	bad := machine.Config{
		Model:  machine.SwitchOnUse,
		Faults: net.FaultConfig{Enabled: true, DropRate: 2},
	}
	if _, err := machine.Run(bad, p, nil); err == nil {
		t.Error("DropRate 2 accepted")
	}
	ideal := machine.Config{
		Model:  machine.Ideal,
		Faults: net.FaultConfig{Enabled: true, DropRate: 0.1},
	}
	if _, err := machine.Run(ideal, p, nil); err == nil {
		t.Error("fault injection on the ideal machine accepted")
	}
}
