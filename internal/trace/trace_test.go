package trace_test

import (
	"strings"
	"testing"

	"mtsim/internal/apps/mp3d"
	"mtsim/internal/isa"
	"mtsim/internal/machine"
	"mtsim/internal/prog"
	"mtsim/internal/trace"
)

func buildSimple() *prog.Program {
	b := prog.NewBuilder("t")
	b.Shared("a", 16)
	b.Shared("b", 16)
	b.Li(4, 0)
	b.LwS(5, 4, 0)  // load a[0]
	b.SwS(5, 4, 17) // store b[1]
	b.Li(6, 1)
	b.Faa(7, 4, 2, 6) // faa a[2]
	b.Halt()
	return b.MustBuild()
}

func TestCollectorCountsAndSymbols(t *testing.T) {
	p := buildSimple()
	c := trace.New(p, 4)
	_, err := machine.RunTraced(machine.Config{Procs: 2, Threads: 1, Model: machine.Ideal}, p, nil, nil, c.Collect)
	if err != nil {
		t.Fatal(err)
	}
	// Two threads, each: 1 load + 1 store + 1 faa.
	if c.Total() != 6 {
		t.Fatalf("total = %d, want 6", c.Total())
	}
	rep := c.Report()
	for _, want := range []string{"loads 2", "stores 2", "fetch-and-adds 2", "a ", "b "} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestSharingDetection(t *testing.T) {
	// Two procs touch the same cell: one shared line; each also touches
	// a private cell on its own line.
	b := prog.NewBuilder("s")
	b.Shared("common", 4)
	priv := b.Shared("priv", 64)
	b.Li(4, 0)
	b.LwS(5, 4, 0) // everyone reads common[0]
	b.Slli(6, isa.RTid, 4)
	b.Li(7, priv.Base)
	b.Add(6, 6, 7)
	b.SwS(5, 6, 0) // private slot, 16 cells apart (distinct 4-cell lines)
	b.Halt()
	p := b.MustBuild()

	c := trace.New(p, 4)
	if _, err := machine.RunTraced(machine.Config{Procs: 2, Threads: 1, Model: machine.Ideal}, p, nil, nil, c.Collect); err != nil {
		t.Fatal(err)
	}
	private, shared := c.SharingSummary()
	if shared != 1 {
		t.Errorf("shared lines = %d, want 1 (common)", shared)
	}
	if private != 2 {
		t.Errorf("private lines = %d, want 2", private)
	}
}

func TestHotLines(t *testing.T) {
	b := prog.NewBuilder("h")
	b.Shared("x", 64)
	b.Li(4, 0)
	b.Li(5, 0)
	b.Label("loop")
	b.LwS(6, 4, 0) // hammer x[0]
	b.LwS(6, 4, 32)
	b.LwS(6, 4, 0)
	b.Addi(5, 5, 1)
	b.Slti(7, 5, 10)
	b.Bnez(7, "loop")
	b.Halt()
	p := b.MustBuild()
	c := trace.New(p, 4)
	if _, err := machine.RunTraced(machine.Config{Model: machine.Ideal}, p, nil, nil, c.Collect); err != nil {
		t.Fatal(err)
	}
	hot := c.HotLines(2)
	if len(hot) != 2 || hot[0].Line != 0 || hot[0].Count != 20 || hot[1].Count != 10 {
		t.Errorf("hot lines = %+v", hot)
	}
	if got := c.SymbolName(0); got != "x" {
		t.Errorf("symbol for line 0 = %q", got)
	}
}

func TestMeanGapPositive(t *testing.T) {
	a := mp3d.New(mp3d.ParamsFor(0))
	c := trace.New(a.Raw, 4)
	_, err := machine.RunTraced(machine.Config{Procs: 2, Threads: 2, Model: machine.SwitchOnLoad, Latency: 50},
		a.Raw, a.Init.Fill, a.Check, c.Collect)
	if err != nil {
		t.Fatal(err)
	}
	if g := c.MeanGap(); g <= 0 {
		t.Errorf("mean gap = %v", g)
	}
	// mp3d's dominant traffic must be the particle array, with the cell
	// array shared across processors.
	rep := c.Report()
	if !strings.Contains(rep, "part") || !strings.Contains(rep, "cells") {
		t.Errorf("report missing symbols:\n%s", rep)
	}
}

func TestBadLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad line size")
		}
	}()
	trace.New(buildSimple(), 3)
}
