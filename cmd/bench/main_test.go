package main

import (
	"context"
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
