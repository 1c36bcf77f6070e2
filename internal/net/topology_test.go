package net

import (
	"strings"
	"testing"

	"mtsim/internal/rng"
)

// routedKinds are the kinds with an actual link graph.
var routedKinds = []TopologyKind{TopoMesh, TopoFatTree, TopoDragonfly}

func TestParseTopologyRoundTrips(t *testing.T) {
	for _, name := range TopologyNames() {
		k, err := ParseTopology(name)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParseTopology(%q).String() = %q", name, k.String())
		}
	}
	if _, err := ParseTopology("torus"); err == nil {
		t.Fatal("ParseTopology(torus) succeeded")
	} else if msg := err.Error(); !strings.Contains(msg, "mesh") || !strings.Contains(msg, "dragonfly") {
		t.Errorf("error %q does not list the valid choices", msg)
	}
}

func TestTopologyConfigValidate(t *testing.T) {
	bad := []TopologyConfig{
		{Kind: TopologyKind(99)},
		{Kind: TopologyKind(-1)},
		{Kind: TopoMesh, Nodes: -1},
		{Kind: TopoMesh, HopCycles: -2},
		{Kind: TopoMesh, ChannelBits: -16},
		{Kind: TopoMesh, MemCycles: -1},
		// The constant kind is the legacy network; shape parameters on it
		// would silently mean nothing, so they are rejected.
		{Kind: TopoConstant, Nodes: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
	good := []TopologyConfig{
		{},
		{Kind: TopoMesh},
		{Kind: TopoFatTree, Nodes: 13, HopCycles: 2, ChannelBits: 8, MemCycles: 5},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", c, err)
		}
	}
}

func TestTopologyDefaults(t *testing.T) {
	got := TopologyConfig{Kind: TopoMesh}.WithDefaults(16)
	want := TopologyConfig{Kind: TopoMesh, Nodes: 16, HopCycles: 4, ChannelBits: 16, MemCycles: 20}
	if got != want {
		t.Errorf("WithDefaults = %+v, want %+v", got, want)
	}
	// Constant stays the zero value no matter what, so the effective form
	// of a legacy configuration is unchanged (snapshot config identity).
	if got := (TopologyConfig{}).WithDefaults(16); got != (TopologyConfig{}) {
		t.Errorf("constant WithDefaults = %+v, want zero", got)
	}
}

// TestRouteTerminatesWithinDiameter: every route between every node
// pair must use valid link ids and terminate within the topology's
// declared diameter — including awkward non-square, non-power-of-two
// node counts.
func TestRouteTerminatesWithinDiameter(t *testing.T) {
	for _, kind := range routedKinds {
		for _, nodes := range []int{1, 2, 3, 5, 8, 13, 16, 29} {
			n := NewNetwork(TopologyConfig{Kind: kind, Nodes: nodes}, nodes, 200)
			diam := n.Diameter()
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					p := n.route(src, dst)
					if src == dst && len(p) != 0 {
						t.Fatalf("%s/%d: route(%d,%d) = %d hops, want 0", kind, nodes, src, dst, len(p))
					}
					if len(p) > diam {
						t.Fatalf("%s/%d: route(%d,%d) = %d hops > diameter %d", kind, nodes, src, dst, len(p), diam)
					}
					for _, id := range p {
						if id < 0 || id >= n.NumLinks() {
							t.Fatalf("%s/%d: route(%d,%d) uses link %d of %d", kind, nodes, src, dst, id, n.NumLinks())
						}
					}
				}
			}
		}
	}
}

// TestQueueConservation: under a seeded random load, every message
// enqueued on a link eventually drains — after Quiesce at a time past
// the last departure, enqueues == drains and nothing is pending.
func TestQueueConservation(t *testing.T) {
	for _, kind := range routedKinds {
		r := rng.New(42)
		n := NewNetwork(TopologyConfig{Kind: kind}, 16, 200)
		var now int64
		for i := 0; i < 5000; i++ {
			src := int(r.Intn(16))
			addr := r.Intn(1 << 20)
			n.RoundTrip(now, src, addr, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
			now += r.Intn(3) // bursts: several requests per cycle
		}
		// Mid-run the books must still balance: enqueued = drained + in flight.
		var pending int64
		for i := range n.links {
			pending += int64(len(n.links[i].pending))
		}
		if n.Enqueued() != n.Drained()+pending {
			t.Fatalf("%s: mid-run enqueued %d != drained %d + pending %d", kind, n.Enqueued(), n.Drained(), pending)
		}
		if n.Enqueued() == 0 {
			t.Fatalf("%s: no traffic routed", kind)
		}
		n.Quiesce(now + MaxRoundTrip)
		if n.Enqueued() != n.Drained() {
			t.Fatalf("%s: after quiesce enqueued %d != drained %d", kind, n.Enqueued(), n.Drained())
		}
		for i := range n.links {
			if len(n.links[i].pending) != 0 {
				t.Fatalf("%s: link %d still has %d pending after quiesce", kind, i, len(n.links[i].pending))
			}
		}
	}
}

// TestRoundTripAllocatesNothing: the machine routes every shared access
// through RoundTrip, so once each link's queue has room for its
// steady-state backlog a round trip must allocate nothing on any
// topology.
func TestRoundTripAllocatesNothing(t *testing.T) {
	for _, kind := range append([]TopologyKind{TopoConstant}, routedKinds...) {
		n := NewNetwork(TopologyConfig{Kind: kind}, 16, 200)
		var now int64
		sweep := func() {
			for src := 0; src < 16; src++ {
				for addr := int64(0); addr < 16; addr++ {
					now += 10_000 // past every earlier departure: queues drain
					n.RoundTrip(now, src, addr, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
				}
			}
		}
		sweep() // the first touch of each link sizes its queue
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
			t.Errorf("%s: %v allocations per 256 round trips, want 0", kind, allocs)
		}
	}
}

// TestLatencyMonotoneInLoad: firing more simultaneous requests at the
// same destination must never make the worst round trip faster — the
// FIFO queues only add waiting as offered load grows.
func TestLatencyMonotoneInLoad(t *testing.T) {
	for _, kind := range routedKinds {
		var prevWorst int64
		for load := 1; load <= 32; load *= 2 {
			n := NewNetwork(TopologyConfig{Kind: kind}, 16, 200)
			var worst int64
			for i := 0; i < load; i++ {
				// All processors hammer the same module at cycle 0.
				lat := n.RoundTrip(0, i%16, 8, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
				if lat > worst {
					worst = lat
				}
			}
			if worst < prevWorst {
				t.Fatalf("%s: worst latency at load %d = %d < %d at half the load", kind, load, worst, prevWorst)
			}
			prevWorst = worst
		}
		if prevWorst <= 0 {
			t.Fatalf("%s: no latency observed", kind)
		}
	}
}

// TestConstantTopologyBitEqualLegacy: the constant kind must return the
// legacy fixed round trip, bit-equal, for any seeded access pattern —
// the invariant that lets the machine treat a zero TopologyConfig as
// the paper's network.
func TestConstantTopologyBitEqualLegacy(t *testing.T) {
	const base = 200
	n := NewNetwork(TopologyConfig{}, 16, base)
	r := rng.New(7)
	for i := 0; i < 10000; i++ {
		src := int(r.Intn(64))
		addr := r.Intn(1 << 30)
		if lat := n.RoundTrip(int64(i), src, addr, Bits(ReadReq, 0), Bits(ReadReply, WordBits)); lat != base {
			t.Fatalf("access %d (src %d, addr %d): latency %d, want %d", i, src, addr, lat, base)
		}
	}
	if n.Requests != 10000 {
		t.Errorf("Requests = %d, want 10000", n.Requests)
	}
	if n.NumLinks() != 0 {
		t.Errorf("constant network has %d links", n.NumLinks())
	}
}

// TestTopologySnapshotRoundtrip: a restored network must produce
// byte-identical latencies for any subsequent request stream.
func TestTopologySnapshotRoundtrip(t *testing.T) {
	for _, kind := range routedKinds {
		cfg := TopologyConfig{Kind: kind}
		n := NewNetwork(cfg, 16, 200)
		r := rng.New(99)
		var now int64
		for i := 0; i < 2000; i++ {
			n.RoundTrip(now, int(r.Intn(16)), r.Intn(1<<16), Bits(ReadReq, 0), Bits(ReadReply, WordBits))
			now += r.Intn(2)
		}
		st := n.Snapshot()
		m := NewNetwork(cfg, 16, 200)
		if err := m.Restore(st); err != nil {
			t.Fatalf("%s: Restore: %v", kind, err)
		}
		for i := 0; i < 2000; i++ {
			src := int(r.Intn(16))
			addr := r.Intn(1 << 16)
			a := n.RoundTrip(now, src, addr, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
			b := m.RoundTrip(now, src, addr, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
			if a != b {
				t.Fatalf("%s: post-restore access %d: %d != %d", kind, i, a, b)
			}
			now += r.Intn(2)
		}
		if n.Requests != m.Requests || n.PeakQueue != m.PeakQueue || n.MaxLatency != m.MaxLatency {
			t.Fatalf("%s: counters diverged after restore", kind)
		}
	}
}

func TestTopologyRestoreRejectsBadState(t *testing.T) {
	n := NewNetwork(TopologyConfig{Kind: TopoMesh}, 16, 200)
	st := n.Snapshot()
	st.FreeAt = st.FreeAt[:len(st.FreeAt)-1]
	if err := n.Restore(st); err == nil {
		t.Error("Restore accepted a truncated link array")
	}
	st = n.Snapshot()
	st.Enqueued[0] = 5 // books no longer balance: 5 enqueued, 0 drained+pending
	if err := n.Restore(st); err == nil {
		t.Error("Restore accepted inconsistent queue counters")
	}
}
