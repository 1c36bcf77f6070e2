package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/machine"
	"mtsim/internal/metrics"
	"mtsim/internal/net"
)

// This file defines the deterministic golden artifacts pinned by
// internal/exp's golden tests and regenerated by cmd/gengolden. Keeping
// the one definition here means the generator and the test can never
// drift: both call GoldenSet.

// GoldenSet regenerates the golden artifacts, keyed by file name
// (relative to internal/exp/testdata):
//
//   - figure1.golden.txt: the rendered model-taxonomy table, pinning the
//     simulator's cycle-exact behavior across all eight models;
//   - figure4.golden.txt: the rendered grouping transform, pinning the
//     optimizer's output;
//   - batch_metrics.golden.json: the figure1 session's aggregate cycle
//     accounting, pinning the BatchMetrics JSON schema;
//   - run_metrics.golden.json: one faulted cache-model run's record,
//     pinning the RunMetrics JSON schema with all six states populated;
//   - ablation-topology.golden.txt: the irregular-kernel x topology
//     sweep, pinning the routed networks' cycle-exact queueing and the
//     kernels' workload generators (rendered in its own session so the
//     batch-metrics golden stays the figure1 aggregate);
//   - <id>.golden.txt for every other experiment in All() and
//     Ablations(): the quick-scale render of each paper table, figure
//     and ablation, in a session of their own for the same reason.
//     short skips these renders, whose multithreading-level searches
//     cost seconds of CPU each, for callers such as the race
//     detector's -short pass.
//
// Everything is deterministic: fixed seeds, fixed problem scales, and
// the engine's byte-identical-at-any-width contract.
func GoldenSet(short bool) (map[string][]byte, error) {
	return GoldenSetContext(context.Background(), short)
}

// GoldenSetContext is GoldenSet under a context: cancellation aborts
// the regeneration's simulations cooperatively (cmd/gengolden wires
// SIGINT/SIGTERM here so an interrupted regeneration exits cleanly
// instead of half-writing testdata).
func GoldenSetContext(ctx context.Context, short bool) (map[string][]byte, error) {
	out := make(map[string][]byte)

	// Pin the worker width: MTSearch's speculative probes make the
	// engine's request stream vary with it, so an aggregate golden must
	// not inherit the host's GOMAXPROCS.
	o := New(io.Discard,
		WithScale(app.Quick),
		WithMetrics(true),
		WithJobs(1),
		WithContext(ctx))
	for _, id := range []string{"figure1", "figure4"} {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		sub := *o
		sub.Out = &buf
		if err := e.Run(&sub); err != nil {
			return nil, fmt.Errorf("golden %s: %w", id, err)
		}
		out[id+".golden.txt"] = buf.Bytes()
	}
	var bm bytes.Buffer
	if err := metrics.WriteJSON(&bm, o.Sess.Metrics()); err != nil {
		return nil, err
	}
	out["batch_metrics.golden.json"] = bm.Bytes()

	ot := New(io.Discard,
		WithScale(app.Quick),
		WithJobs(1),
		WithContext(ctx))
	e, err := ByID("ablation-topology")
	if err != nil {
		return nil, err
	}
	var tb bytes.Buffer
	ot.Out = &tb
	if err := e.Run(ot); err != nil {
		return nil, fmt.Errorf("golden ablation-topology: %w", err)
	}
	out["ablation-topology.golden.txt"] = tb.Bytes()

	rm, err := goldenRunMetrics(ctx)
	if err != nil {
		return nil, err
	}
	var rb bytes.Buffer
	if err := metrics.WriteJSON(&rb, rm); err != nil {
		return nil, err
	}
	out["run_metrics.golden.json"] = rb.Bytes()
	if short {
		return out, nil
	}

	var rest []*Experiment
	for _, e := range append(All(), Ablations()...) {
		if out[e.ID+".golden.txt"] == nil {
			rest = append(rest, e)
		}
	}
	renders, _, err := Rendered(New(io.Discard, WithScale(app.Quick), WithContext(ctx)), rest)
	if err != nil {
		return nil, fmt.Errorf("golden %w", err)
	}
	for i, e := range rest {
		out[e.ID+".golden.txt"] = []byte(renders[i])
	}
	return out, nil
}

// goldenRunMetrics performs the schema-pinning single run: a cache
// model (so cache-hit-continue and context-switching are nonzero) under
// fault injection (so fault-recovery is nonzero) with enough threads
// per processor to stall and idle.
func goldenRunMetrics(ctx context.Context) (*metrics.RunMetrics, error) {
	a := apps.MustNew("sieve", app.Quick)
	cfg := machine.Config{
		Procs: 2, Threads: 2, Model: machine.SwitchOnMiss, Latency: 50,
		CollectRunLengths: true, CollectMetrics: true,
		// Rates gentle enough that recovery debt does not swallow every
		// stall: both stalled-on-memory and fault-recovery stay nonzero.
		Faults: net.FaultConfig{
			Enabled: true, Seed: 1,
			DropRate: 0.002, DupRate: 0.01, DelayRate: 0.005,
		},
	}
	res, err := a.RunContext(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	return res.Metrics, nil
}
