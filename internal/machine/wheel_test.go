package machine

import (
	"fmt"
	"slices"
	"testing"

	"mtsim/internal/isa"
	"mtsim/internal/prog"
	"mtsim/internal/rng"
)

// TestWheelMatchesNaiveMinScan drives the event wheel by hand through
// seeded random schedules and checks every step against a naive scan of
// sim.wakes: nextEvent must return the earliest wake, and popAndRun must
// run exactly the processors due then, in ascending id order. The
// processor counts put a bucket in one, one, two and three bitmap words
// (and a lone processor, which run itself never queues). The short
// latency crowds many processors into each cycle; the long one spreads
// wakes both inside and beyond the 2048-cycle ring.
func TestWheelMatchesNaiveMinScan(t *testing.T) {
	for _, procs := range []int{1, 63, 64, 65, 130} {
		for _, lat := range []struct{ latency, jitter int }{{20, 3}, {3000, 2500}} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("procs=%d/latency=%d/seed=%d", procs, lat.latency, seed)
				t.Run(name, func(t *testing.T) {
					checkWheel(t, procs, lat.latency, lat.jitter, seed)
				})
			}
		}
	}
}

// checkWheel runs one schedule. Every thread issues the same seeded list
// of shared loads, offset by its id, so the per-access latency jitter
// differs between processors, then halts. With one thread per processor
// under switch-on-load, a dispatch is exactly one instruction, and each
// load dispatch shows in the trace, in execution order.
func checkWheel(t *testing.T, procs, latency, jitter int, seed uint64) {
	r := rng.New(seed)
	b := prog.NewBuilder("wheel")
	b.Shared("data", 4096)
	for i := 0; i < 40; i++ {
		b.LwS(4, isa.RTid, r.Intn(2048))
	}
	b.Halt()
	cfg := Config{Procs: procs, Threads: 1, Model: SwitchOnLoad, Latency: latency, LatencyJitter: jitter}
	var ran []int32
	sim, err := newSim(cfg, b.MustBuild(), nil, func(ev TraceEvent) { ran = append(ran, ev.Proc) })
	if err != nil {
		t.Fatal(err)
	}
	sim.wakes = make([]int64, procs)
	sim.buildWheel(0)
	now, beyond := int64(0), false
	for steps := 0; ; steps++ {
		if earliest := slices.Min(sim.wakes); now != earliest {
			t.Fatalf("step %d: nextEvent chose cycle %d, the earliest wake is %d", steps, now, earliest)
		}
		var want []int32
		for pi, w := range sim.wakes {
			if w == now && sim.instrs[sim.procs[pi].threads[0].pc].Op == isa.LwS {
				want = append(want, int32(pi))
			}
		}
		ran = ran[:0]
		if err := sim.popAndRun(now); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ran, want) {
			t.Fatalf("step %d, cycle %d: ran loads of processors %v, want %v", steps, now, ran, want)
		}
		for pi, w := range sim.wakes {
			if w <= now {
				t.Fatalf("step %d, cycle %d: processor %d still due at %d after the pop", steps, now, pi, w)
			}
			if w != never && w-now >= wheelSize {
				beyond = true
			}
		}
		if sim.live == 0 {
			break
		}
		next, ok := sim.nextEvent(now + 1)
		if !ok {
			t.Fatalf("step %d: nextEvent found nothing with %d threads live", steps, sim.live)
		}
		now = next
	}
	if latency > int(wheelSize) && !beyond {
		t.Error("no wake lay beyond the ring")
	}
}
