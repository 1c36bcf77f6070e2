package exp_test

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/core"
	"mtsim/internal/exp"
)

// TestRenderedParallelMatchesSequential is the determinism contract of
// the parallel engine: rendering with many workers must produce output
// byte-identical to -j 1. The experiment subset covers every concurrency
// mechanism — batched memo runs (figure1, table2, and figure3's grid),
// the wave MTSearch plus the parallel penalty column (table5),
// unmemoized direct machine runs (ablation-priority), and the seeded
// fault-injection sweep (ablation-faults), whose fixed-seed degraded
// runs must be bit-reproducible at any worker width.
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

// TestEngineCountsIndependentOfWidth: every generator outside the
// multithreading-level searches issues its job list once, as one batch,
// so a session's simulation and memo-hit counts depend on the
// experiments alone, not on the worker width. (MTSearch's speculative
// waves still vary with the width, so the set leaves those tables out.)
func TestEngineCountsIndependentOfWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("renders five experiments twice; not short")
	}
	var exps []*exp.Experiment
	for _, id := range []string{"figure1", "figure2", "table2", "table7", "ablation-faults"} {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	counts := func(width int) [2]int64 {
		o := exp.New(io.Discard, exp.WithScale(app.Quick), exp.WithJobs(width))
		if _, _, err := exp.Rendered(o, exps); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return [2]int64{o.Sess.SimCount(), o.Sess.MemoHits()}
	}
	if one, two := counts(1), counts(2); one != two {
		t.Errorf("sims/memo hits = %v at width 1, %v at width 2", one, two)
	}
}

// TestSessionWidthBoundsRendering: options built WithSession fan out
// exactly as wide as their session, so a one-worker session renders
// one experiment at a time whatever GOMAXPROCS is.
func TestSessionWidthBoundsRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("times overlapping renders; not short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s := core.NewSession()
	s.Workers = 1
	o := exp.New(io.Discard, exp.WithSession(s))
	var inflight, peak atomic.Int32
	probe := &exp.Experiment{ID: "probe", Run: func(*exp.Options) error {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond) // long enough for a second worker to overlap
		inflight.Add(-1)
		return nil
	}}
	if _, _, err := exp.Rendered(o, []*exp.Experiment{probe, probe, probe, probe}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d renders in flight at once on a one-worker session, want 1", p)
	}
}
