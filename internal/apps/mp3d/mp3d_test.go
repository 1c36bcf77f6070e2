package mp3d_test

import (
	"testing"

	"mtsim/internal/apps/mp3d"
	"mtsim/internal/apps/sor"
	"mtsim/internal/machine"
)

func TestCorrectAtAwkwardShapes(t *testing.T) {
	for _, p := range []mp3d.Params{
		{Particles: 9, Steps: 1, Cells: 17, Dt: 0.05, Seed: 1}, // cells round up
		{Particles: 100, Steps: 3, Cells: 64, Dt: 0.01, Seed: 2},
	} {
		a := mp3d.New(p)
		if _, err := a.Run(machine.Config{Procs: 3, Threads: 3, Model: machine.ConditionalSwitch, Latency: 50}); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
}

// TestShortRunLengths: mp3d is listed with sor and locus among the codes
// with "very short run-lengths" needing "large multithreading levels"
// (§4.1).
func TestShortRunLengths(t *testing.T) {
	a := mp3d.New(mp3d.ParamsFor(0))
	res, err := a.Run(machine.Config{
		Procs: 8, Threads: 4, Model: machine.SwitchOnLoad,
		Latency: 200, CollectRunLengths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sf := res.RunLengths.ShortFrac(); sf < 0.4 {
		t.Errorf("short run-length fraction = %.2f, want >= 0.4", sf)
	}
}

// TestPoorLocality: "the mp3d application has very poor reference
// locality and thus benefits little from caching" (§6.1): its hit rate
// must sit clearly below a stencil code's, and its bandwidth demand must
// stay the highest of the two.
func TestPoorLocality(t *testing.T) {
	cfg := machine.Config{Procs: 8, Threads: 6, Model: machine.ConditionalSwitch, Latency: 200}
	am := mp3d.New(mp3d.ParamsFor(0))
	rm, err := am.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	as := sor.New(sor.ParamsFor(0))
	cfgS := cfg
	cfgS.Procs = 4
	rs, err := as.Run(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if rm.CacheHitRate() >= rs.CacheHitRate() {
		t.Errorf("mp3d hit rate %.2f >= sor %.2f; mp3d must cache worse",
			rm.CacheHitRate(), rs.CacheHitRate())
	}
	if rm.BitsPerCycle() <= rs.BitsPerCycle() {
		t.Errorf("mp3d bandwidth %.2f <= sor %.2f; mp3d must stay bandwidth-hungry",
			rm.BitsPerCycle(), rs.BitsPerCycle())
	}
}

// TestCellCountersConserved: every particle bumps exactly one cell
// counter per step, so the counters must sum to particles x steps (also
// verified per-cell by App.Check; this asserts the aggregate invariant
// under heavy contention).
func TestCellCountersConserved(t *testing.T) {
	p := mp3d.Params{Particles: 256, Steps: 3, Cells: 64, Dt: 0.01, Seed: 4}
	a := mp3d.New(p)
	prg := a.Raw
	res, err := machine.RunChecked(machine.Config{Procs: 4, Threads: 4, Model: machine.SwitchOnUse, Latency: 100},
		prg, a.Init.Fill, func(sh *machine.Shared) error {
			var sum int64
			for c := int64(0); c < 64; c++ {
				sum += sh.WordAt("cells", c*2)
			}
			if want := int64(256 * 3); sum != want {
				t.Errorf("counter sum = %d, want %d", sum, want)
			}
			return a.Check(sh)
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedLoads == 0 {
		t.Error("no shared loads recorded")
	}
}
