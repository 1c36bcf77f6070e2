package machine_test

import (
	"fmt"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/machine"
	"mtsim/internal/net"
)

// wideRun is one pinned run of more than 64 processors.
type wideRun struct {
	app            string
	procs, threads int
	model          machine.Model
	topo           net.TopologyKind
	// Pinned observables.
	cycles, instrs     int64
	messages, bits     int64
	spinMsgs, spinBits int64
}

// TestWideMachinesPinned pins runs of 96 and 130 processors, the only
// shapes where an event-wheel bucket spans two or three bitmap words
// and a routed network has more than 64 nodes. Every other test and
// bench entry stops at 64 processors. The expected values were recorded
// before the wheel's occupancy bitmap and the memoized routes replaced
// the per-cycle bucket probe and the per-access route rebuild, so any
// drift there shows up here as a changed cycle, instruction or traffic
// count.
func TestWideMachinesPinned(t *testing.T) {
	runs := []wideRun{
		{"sieve", 96, 2, machine.SwitchOnLoad, net.TopoConstant, 65493, 2120708, 290086, 19591680, 0, 0},
		{"sieve", 96, 2, machine.SwitchOnLoad, net.TopoMesh, 418085, 2120708, 290086, 19591680, 0, 0},
		{"sieve", 96, 2, machine.SwitchOnUse, net.TopoConstant, 64498, 2120708, 290086, 19591680, 0, 0},
		{"sieve", 96, 2, machine.SwitchOnUse, net.TopoMesh, 414018, 2120708, 290086, 19591680, 0, 0},
		{"sieve", 130, 1, machine.SwitchOnLoad, net.TopoConstant, 78387, 1884116, 289962, 19581760, 0, 0},
		{"sieve", 130, 1, machine.SwitchOnLoad, net.TopoMesh, 478468, 1884116, 289962, 19581760, 0, 0},
		{"sieve", 130, 1, machine.SwitchOnUse, net.TopoConstant, 76795, 1884116, 289962, 19581760, 0, 0},
		{"sieve", 130, 1, machine.SwitchOnUse, net.TopoMesh, 481942, 1884116, 289962, 19581760, 0, 0},
		{"sor", 96, 2, machine.SwitchOnLoad, net.TopoConstant, 200657, 485381, 149784, 11982336, 255218, 16333952},
		{"sor", 96, 2, machine.SwitchOnLoad, net.TopoMesh, 901157, 693993, 149784, 11982336, 463830, 29685120},
		{"sor", 96, 2, machine.SwitchOnUse, net.TopoConstant, 47253, 290053, 149784, 11982336, 59890, 3832960},
		{"sor", 96, 2, machine.SwitchOnUse, net.TopoMesh, 376216, 361845, 149784, 11982336, 131682, 8427648},
		{"sor", 130, 1, machine.SwitchOnLoad, net.TopoConstant, 200602, 356855, 149040, 11922816, 132334, 8469376},
		{"sor", 130, 1, machine.SwitchOnLoad, net.TopoMesh, 1556539, 373245, 149040, 11922816, 148724, 9518336},
		{"sor", 130, 1, machine.SwitchOnUse, net.TopoConstant, 47194, 256139, 149040, 11922816, 31618, 2023552},
		{"sor", 130, 1, machine.SwitchOnUse, net.TopoMesh, 594803, 257987, 149040, 11922816, 33466, 2141824},
	}
	for _, want := range runs {
		name := fmt.Sprintf("%s/%dx%d/%s/%s", want.app, want.procs, want.threads, want.model, want.topo)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := apps.MustNew(want.app, app.Quick)
			p, err := a.ProgramFor(want.model)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.Config{Procs: want.procs, Threads: want.threads, Model: want.model, Latency: 200}
			cfg.Topology = net.TopologyConfig{Kind: want.topo}
			res, err := machine.RunChecked(cfg, p, a.Init.Fill, a.Check)
			if err != nil {
				t.Fatal(err)
			}
			got := want
			got.cycles, got.instrs = res.Cycles, res.Instrs
			got.messages, got.bits = res.Traffic.Messages(), res.Traffic.Bits()
			got.spinMsgs, got.spinBits = res.Traffic.SpinCount, res.Traffic.SpinBits
			if got != want {
				t.Errorf("got  %+v\nwant %+v", got, want)
			}
		})
	}
}
