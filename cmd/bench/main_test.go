package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestHotLoopVariantsDoIdenticalWork: the machine-hot-loop entries time
// one simulation under different engines and with cycle accounting on,
// so their simulated work must be identical — a difference would mean
// the engine or the collector changed what the machine does.
func TestHotLoopVariantsDoIdenticalWork(t *testing.T) {
	type work struct{ instrs, cycles int64 }
	got := map[string]work{}
	for _, b := range suite() {
		switch b.name {
		case "machine-hot-loop", "machine-hot-loop-metrics", "machine-hot-loop-interp":
			instrs, cycles, err := b.run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			got[b.name] = work{instrs, cycles}
		}
	}
	want, ok := got["machine-hot-loop"]
	if !ok || len(got) != 3 {
		t.Fatalf("suite is missing machine-hot-loop variants: ran %v", got)
	}
	for name, w := range got {
		if w != want {
			t.Errorf("%s did %+v, machine-hot-loop did %+v", name, w, want)
		}
	}
}

// TestGateNotesUngatedEntries: an entry the baseline lacks passes, but
// the gate names it in a note and leaves it out of the compared count,
// so an ok line never claims to have checked it.
func TestGateNotesUngatedEntries(t *testing.T) {
	base := &Record{Benchmarks: []BenchResult{
		{Name: "a", SimInstr: 10, SimCycle: 20},
		{Name: "b", SimInstr: 30, SimCycle: 40},
	}}
	cur := &Record{Benchmarks: []BenchResult{
		{Name: "a", SimInstr: 10, SimCycle: 20},
		{Name: "new", SimInstr: 5, SimCycle: 6},
		{Name: "b", SimInstr: 30, SimCycle: 40},
	}}
	var out, errOut bytes.Buffer
	if !gate(&out, &errOut, "BASE.json", base, cur, 0.1) {
		t.Fatalf("gate failed a record whose shared entries match: %s", errOut.String())
	}
	want := "bench: note: new is not in BASE.json, so nothing gates it\n" +
		"baseline BASE.json: ok (2 benchmarks compared, 1 not gated)\n"
	if out.String() != want || errOut.Len() != 0 {
		t.Errorf("gate printed\n%q\nand errors %q, want\n%q", out.String(), errOut.String(), want)
	}

	// A changed shared entry still fails, and the ungated one is still
	// only a note.
	cur.Benchmarks[2].SimCycle++
	out.Reset()
	errOut.Reset()
	if gate(&out, &errOut, "BASE.json", base, cur, 0.1) {
		t.Fatal("gate passed a record whose simulated work changed")
	}
	if !strings.Contains(errOut.String(), "b: simulated work changed") || strings.Contains(errOut.String(), "new") {
		t.Errorf("failures = %q, want only b's changed work", errOut.String())
	}
	if !strings.Contains(out.String(), "note: new") || strings.Contains(out.String(), "ok") {
		t.Errorf("output = %q, want the note and no ok line", out.String())
	}
}
