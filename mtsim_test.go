package mtsim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mtsim"
)

func TestPublicAPISmoke(t *testing.T) {
	if got := len(mtsim.AppNames()); got != 7 {
		t.Fatalf("AppNames = %d entries", got)
	}
	if got := len(mtsim.ModelNames()); got != 8 {
		t.Fatalf("ModelNames = %d entries", got)
	}
	if got := len(mtsim.Experiments()); got != 12 {
		t.Fatalf("Experiments = %d entries", got)
	}
	m, err := mtsim.ParseModel("conditional-switch")
	if err != nil || m != mtsim.ConditionalSwitch {
		t.Fatalf("ParseModel: %v, %v", m, err)
	}
	if _, err := mtsim.ParseModel("bogus"); err == nil {
		t.Error("bogus model accepted")
	}
	s, err := mtsim.ParseScale("medium")
	if err != nil || s != mtsim.Medium {
		t.Fatalf("ParseScale: %v, %v", s, err)
	}
}

func TestRunBenchmarkAppViaFacade(t *testing.T) {
	a := mtsim.MustNewApp("sieve", mtsim.Quick)
	res, err := a.Run(mtsim.Config{
		Procs: 4, Threads: 8, Model: mtsim.ExplicitSwitch, Latency: mtsim.DefaultLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Utilization() <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if !strings.Contains(res.Summary(), "explicit-switch") {
		t.Error("summary missing model name")
	}
}

func TestCustomProgramViaFacade(t *testing.T) {
	b := mtsim.NewProgram("inc")
	cnt := b.Shared("cnt", 1)
	bar := mtsim.AllocBarrier(b, "bar")
	b.Li(4, cnt.Base)
	b.Li(5, 1)
	b.Faa(6, 4, 0, 5)
	b.Li(9, bar.Addr(0))
	mtsim.Barrier(b, 9, 0, 20, 10, 11)
	// After the barrier thread 0 doubles the count.
	b.Bnez(mtsim.RegTid, "end")
	b.LwS(7, 4, 0)
	b.Add(7, 7, 7)
	b.SwS(7, 4, 0)
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	grouped, st, err := mtsim.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Switches == 0 {
		t.Error("optimizer inserted nothing")
	}
	for _, prg := range []*mtsim.Program{p, grouped} {
		_, err := mtsim.RunCheckedContext(context.Background(), mtsim.Config{
			Procs: 3, Threads: 2, Model: mtsim.ExplicitSwitch, Latency: 40,
		}, prg, nil, func(sh *mtsim.Shared) error {
			if got := sh.WordAt("cnt", 0); got != 12 {
				return fmt.Errorf("cnt = %d, want 12", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionFacade(t *testing.T) {
	sess := mtsim.NewSession()
	a := mtsim.MustNewApp("blkmat", mtsim.Quick)
	base, err := sess.Baseline(a)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := sess.Efficiency(a, mtsim.Config{Procs: 2, Threads: 2, Model: mtsim.ExplicitSwitch})
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 || eff <= 0 || eff > 1.2 {
		t.Fatalf("base=%d eff=%v", base, eff)
	}
}

func TestExperimentLookupFacade(t *testing.T) {
	e, err := mtsim.ExperimentByID("figure3")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "figure3" {
		t.Errorf("id = %s", e.ID)
	}
}
