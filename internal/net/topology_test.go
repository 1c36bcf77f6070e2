package net

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"mtsim/internal/rng"
	"mtsim/internal/snap"
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
			n := NewNetwork(TopologyConfig{Kind: kind, Nodes: nodes}, nodes)
			diam := n.Diameter()
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					p := n.route(nil, src, dst)
					if src == dst && len(p) != 0 {
						t.Fatalf("%s/%d: route(%d,%d) = %d hops, want 0", kind, nodes, src, dst, len(p))
					}
					if len(p) > diam {
						t.Fatalf("%s/%d: route(%d,%d) = %d hops > diameter %d", kind, nodes, src, dst, len(p), diam)
					}
					for _, id := range p {
						if id < 0 || int(id) >= n.NumLinks() {
							t.Fatalf("%s/%d: route(%d,%d) uses link %d of %d", kind, nodes, src, dst, id, n.NumLinks())
						}
					}
				}
			}
		}
	}
}

// TestRoundTripAllocatesNothing: the machine routes every shared access
// through RoundTrip, so once every node pair's route is memoized a round
// trip must allocate nothing on any topology.
func TestRoundTripAllocatesNothing(t *testing.T) {
	for _, kind := range routedKinds {
		n := NewNetwork(TopologyConfig{Kind: kind}, 16)
		var now int64
		sweep := func() {
			for src := 0; src < 16; src++ {
				for addr := int64(0); addr < 16<<memInterleaveShift; addr += 1 << memInterleaveShift {
					now += 10_000 // past every earlier departure: queues drain
					n.RoundTrip(now, src, addr, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
				}
			}
		}
		sweep() // the first sweep memoizes every node pair
		if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
			t.Errorf("%s: %v allocations per 256 round trips, want 0", kind, allocs)
		}
	}
}

// TestMemoizedRoutesMatchRoute: after a round trip between every pair of
// nodes, the memo holds every pair, and each memoized round trip is
// exactly route(s, d) followed by route(d, s), on every routed kind and
// at awkward node counts.
func TestMemoizedRoutesMatchRoute(t *testing.T) {
	for _, kind := range routedKinds {
		for nodes := 1; nodes <= 40; nodes++ {
			n := NewNetwork(TopologyConfig{Kind: kind, Nodes: nodes}, nodes)
			for src := 0; src < nodes; src++ {
				for d := 0; d < nodes; d++ {
					n.RoundTrip(0, src, int64(d)<<memInterleaveShift, Bits(ReadReq, 0), Bits(ReadReply, WordBits))
				}
			}
			if len(n.trips) != nodes*nodes {
				t.Fatalf("%s/%d: %d memoized pairs, want %d", kind, nodes, len(n.trips), nodes*nodes)
			}
			for key, tr := range n.trips {
				s, d := int(key)/nodes, int(key)%nodes
				want := n.route(n.route(nil, s, d), d, s)
				if tr.out != len(n.route(nil, s, d)) || !slices.Equal(tr.links, want) {
					t.Fatalf("%s/%d: pair (%d,%d) memoized %v split at %d, want %v", kind, nodes, s, d, tr.links, tr.out, want)
				}
			}
		}
	}
}

// TestLinkCapacities: every fat-tree link carries ChannelBits doubled
// once per level above the leaves, and every mesh and dragonfly link
// carries ChannelBits.
func TestLinkCapacities(t *testing.T) {
	for _, kind := range routedKinds {
		for nodes := 1; nodes <= 40; nodes++ {
			n := NewNetwork(TopologyConfig{Kind: kind, Nodes: nodes, ChannelBits: 12}, nodes)
			want := make([]int64, n.NumLinks())
			for id := range want {
				want[id] = 12
				if kind != TopoFatTree {
					continue
				}
				// Level l's block holds 2^(depth-l) tree nodes of two
				// links each, leaves first.
				level, idx := 0, id/2
				for idx >= 1<<(n.treeDepth-level) {
					idx -= 1 << (n.treeDepth - level)
					level++
				}
				want[id] <<= level
			}
			if !slices.Equal(n.capBits, want) {
				t.Fatalf("%s/%d: capacities %v, want %v", kind, nodes, n.capBits, want)
			}
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
			n := NewNetwork(TopologyConfig{Kind: kind}, 16)
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

// TestTopologySnapshotRoundtrip: a restored network must produce
// byte-identical latencies for any subsequent request stream.
func TestTopologySnapshotRoundtrip(t *testing.T) {
	for _, kind := range routedKinds {
		cfg := TopologyConfig{Kind: kind}
		n := NewNetwork(cfg, 16)
		r := rng.New(99)
		var now int64
		for i := 0; i < 2000; i++ {
			n.RoundTrip(now, int(r.Intn(16)), r.Intn(1<<16), Bits(ReadReq, 0), Bits(ReadReply, WordBits))
			now += r.Intn(2)
		}
		m := NewNetwork(cfg, 16)
		roundTrip(t, n.EncodeState, func(d *snap.Decoder) error { return m.DecodeState(d, false) })
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

// TestTopologyRestoreRejectsBadState: the link count must be the
// geometry's, and in the layout of machine snapshot formats 3 and 4 a
// link's message counters must balance against its in-flight list.
func TestTopologyRestoreRejectsBadState(t *testing.T) {
	n := NewNetwork(TopologyConfig{Kind: TopoMesh}, 16)
	current := func(d *snap.Decoder) error { return n.DecodeState(d, false) }
	queued := func(d *snap.Decoder) error { return n.DecodeState(d, true) }
	// The state opens with the link count.
	b := encodeState(n.EncodeState)
	binary.LittleEndian.PutUint32(b, uint32(n.NumLinks()-1))
	if err := decodeState(b, current); err == nil {
		t.Error("DecodeState accepted a truncated link array")
	}
	// Formats 3 and 4: per link its busy-until cycle, enqueued and
	// drained counters and in-flight departure times.
	legacy := func(enqueued int64) []byte {
		var e snap.Encoder
		e.U32(uint32(n.NumLinks()))
		for i := 0; i < n.NumLinks(); i++ {
			e.I64(int64(100 + i))
			if i == 0 {
				e.I64(enqueued)
				e.I64(3)
				e.I64s([]int64{90, 95})
			} else {
				e.I64(0)
				e.I64(0)
				e.I64s(nil)
			}
		}
		e.I64(7) // Requests
		e.I64(8) // PeakQueue
		e.I64(9) // MaxLatency
		return e.Bytes()
	}
	if err := decodeState(legacy(5), queued); err != nil {
		t.Fatalf("balanced format-4 links rejected: %v", err)
	}
	if n.freeAt[0] != 100 || n.freeAt[len(n.freeAt)-1] != int64(99+n.NumLinks()) ||
		n.Requests != 7 || n.PeakQueue != 8 || n.MaxLatency != 9 {
		t.Errorf("format-4 state restored as links %v, counters %d %d %d", n.freeAt, n.Requests, n.PeakQueue, n.MaxLatency)
	}
	if err := decodeState(legacy(4), queued); err == nil {
		t.Error("DecodeState accepted inconsistent queue counters")
	}
}
