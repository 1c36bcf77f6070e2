package apps_test

import (
	"context"
	"encoding/json"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/machine"
	"mtsim/internal/net"
)

// FuzzSnapshotRoundtrip fuzzes the checkpoint layer's byte-identity
// contract across the whole application suite — the paper's seven
// benchmarks plus the irregular kernels — on every switch model and
// every network topology: for any app, model, topology and pause
// cycle, running to the pause, serializing the machine (link state
// included), restoring it from the bytes and running on must reproduce
// the uninterrupted run's Result — Metrics included — byte for byte,
// and still pass the application's own correctness check.
func FuzzSnapshotRoundtrip(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(0), uint64(500))
	f.Add(uint8(3), uint8(7), uint8(0), uint64(1))
	f.Add(uint8(6), uint8(2), uint8(0), uint64(1<<40))
	f.Add(uint8(2), uint8(0), uint8(0), uint64(12345))
	// Irregular kernels on routed topologies: the snapshot's link state
	// only matters when a non-constant network is live.
	f.Add(uint8(7), uint8(2), uint8(1), uint64(700))
	f.Add(uint8(8), uint8(4), uint8(2), uint64(333))
	f.Add(uint8(9), uint8(2), uint8(3), uint64(4096))
	f.Add(uint8(1), uint8(2), uint8(1), uint64(2500))
	f.Fuzz(func(t *testing.T, appIdx, modelIdx, topoIdx uint8, pauseSeed uint64) {
		names := apps.AllNames()
		a := apps.MustNew(names[int(appIdx)%len(names)], app.Quick)
		model := machine.Model(int(modelIdx) % machine.NumModels)
		kind := net.TopologyKind(int(topoIdx) % net.NumTopologies)
		if model == machine.Ideal {
			// An ideal machine has no network; Validate rejects a routed
			// topology on it, so clamp back to the constant kind.
			kind = net.TopoConstant
		}
		cfg := machine.Config{
			Procs: 4, Threads: 2, Model: model, Latency: 64,
			CollectMetrics: true, CollectRunLengths: true,
		}
		cfg.Topology = net.TopologyConfig{Kind: kind}
		p, err := a.ProgramFor(model)
		if err != nil {
			t.Fatal(err)
		}

		want, err := machine.RunChecked(cfg, p, a.Init.Fill, a.Check)
		if err != nil {
			t.Fatal(err)
		}

		// Pause somewhere inside the run (cycle 1 .. Cycles; pausing at
		// or past the end just completes, which is also worth covering).
		pause := int64(pauseSeed%uint64(want.Cycles)) + 1
		mc, err := machine.NewMachine(cfg, p, a.Init)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		done, err := mc.RunUntil(ctx, pause)
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			snap, err := mc.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot at cycle %d: %v", mc.Cycle(), err)
			}
			if mc, err = machine.RestoreMachine(snap, p, a.Init); err != nil {
				t.Fatalf("RestoreMachine: %v", err)
			}
		}
		got, err := mc.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Check(mc.SharedMem()); err != nil {
			t.Fatalf("restored run computed a wrong result: %v", err)
		}

		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(wj) != string(gj) {
			t.Errorf("app=%s model=%s topo=%s pause=%d: resumed result differs\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
				a.Name, model, kind, pause, wj, gj)
		}
	})
}
