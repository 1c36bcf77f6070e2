package exp_test

import (
	"io"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/exp"
)

// TestRenderedParallelMatchesSequential is the determinism contract of
// the parallel engine: rendering with many workers must produce output
// byte-identical to -j 1. The experiment subset covers every concurrency
// mechanism — prefetched memo runs (figure1, table2), the grid prefetch
// (figure3), the wave MTSearch plus the parallel penalty column
// (table5), unmemoized direct machine runs (ablation-priority), and the
// seeded fault-injection sweep (ablation-faults), whose fixed-seed
// degraded runs must be bit-reproducible at any worker width.
func TestRenderedParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates experiments twice; not short")
	}
	ids := []string{"figure1", "table2", "figure3", "table5", "ablation-priority", "ablation-faults"}
	exps := make([]*exp.Experiment, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = e
	}

	render := func(jobs int) []string {
		// Bound the searches; both runs use the same cap.
		o := exp.New(io.Discard, exp.WithScale(app.Quick), exp.WithMaxMT(10), exp.WithJobs(jobs))
		outs, _, err := exp.Rendered(o, exps)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return outs
	}

	seq := render(1)
	par := render(8)
	for i, id := range ids {
		if seq[i] != par[i] {
			t.Errorf("%s: parallel output differs from sequential\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				id, seq[i], par[i])
		}
		if seq[i] == "" {
			t.Errorf("%s rendered nothing", id)
		}
	}
}
