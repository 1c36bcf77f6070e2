package net

import (
	"fmt"
	"strings"
)

// This file is the pluggable interconnect-topology model: the step past
// the butterfly congestion approximation (congestion.go) toward the
// "simulations using realistic networks" the paper calls for in §6.1.
// Where the congestion model estimates a single utilization figure for
// the whole fabric, a Topology routes every shared-memory round trip
// over an explicit link graph — 2D mesh with dimension-order routing,
// fat-tree with up/down routing through the least common ancestor, or a
// dragonfly-style two-level direct network — and charges each hop the
// waiting time of that link's FIFO queue. Latency is therefore a
// function of where the traffic goes, not just how much there is.
//
// Everything is deterministic: routes are pure functions of (source,
// address), queues are FIFO with serialization-time service, and there
// is no randomness anywhere in the model, so simulated runs stay
// byte-identical and memoizable.

// TopologyKind selects the link graph.
type TopologyKind int

const (
	// TopoConstant is the paper's network: a fixed round trip, no links,
	// no contention. It is the zero value, so a zero TopologyConfig
	// reproduces the legacy constant-latency machine exactly.
	TopoConstant TopologyKind = iota
	// TopoMesh is a 2D mesh with deterministic dimension-order (X then
	// Y) routing.
	TopoMesh
	// TopoFatTree is a binary fat-tree: route up to the least common
	// ancestor and back down, with link capacity doubling toward the
	// root.
	TopoFatTree
	// TopoDragonfly is a dragonfly-style two-level direct network:
	// all-to-all groups of routers, one global link between each group
	// pair, minimal local-global-local routing.
	TopoDragonfly

	numTopologies
)

// NumTopologies is the number of defined topology kinds.
const NumTopologies = int(numTopologies)

var topologyNames = [numTopologies]string{
	TopoConstant:  "constant",
	TopoMesh:      "mesh",
	TopoFatTree:   "fattree",
	TopoDragonfly: "dragonfly",
}

// String returns the kind's name.
func (k TopologyKind) String() string {
	if int(k) >= 0 && int(k) < len(topologyNames) {
		return topologyNames[k]
	}
	return fmt.Sprintf("topology(%d)", int(k))
}

// TopologyNames lists the topology names in declaration order.
func TopologyNames() []string {
	out := make([]string, numTopologies)
	copy(out, topologyNames[:])
	return out
}

// ParseTopology resolves a topology name, listing the valid choices on
// failure (the error is surfaced verbatim by flag parsing and the
// serving layer's 400s).
func ParseTopology(s string) (TopologyKind, error) {
	for i, n := range topologyNames {
		if n == s {
			return TopologyKind(i), nil
		}
	}
	return 0, fmt.Errorf("net: unknown topology %q (have %s)", s, strings.Join(TopologyNames(), ", "))
}

// TopologyConfig parameterizes the topology model. The zero value is
// the constant (legacy) network. It is a flat comparable struct: it
// rides inside machine.Config, which is a session memo key.
type TopologyConfig struct {
	// Kind selects the link graph; TopoConstant (zero) disables the
	// model entirely.
	Kind TopologyKind
	// Nodes is the number of network endpoints. Zero means the
	// processor count; memory modules are interleaved across the same
	// nodes (a dance-hall layout would only rescale the distances).
	Nodes int
	// HopCycles is the per-hop propagation delay in cycles (default 4,
	// matching the congestion model's per-stage delay).
	HopCycles int
	// ChannelBits is the per-link capacity in bits per cycle at the
	// leaf/local level (default 16). Fat-tree links double it per level
	// toward the root.
	ChannelBits int
	// MemCycles is the memory-module service time (default 20).
	MemCycles int
}

// Enabled reports whether the topology model replaces the constant
// round trip.
func (c TopologyConfig) Enabled() bool { return c.Kind != TopoConstant }

// WithDefaults fills zero fields for a procs-processor machine. The
// constant kind stays all-zero so the effective form of a legacy
// configuration is unchanged.
func (c TopologyConfig) WithDefaults(procs int) TopologyConfig {
	if !c.Enabled() {
		// Pass the constant kind through untouched: the zero value must
		// stay zero (legacy config identity for the snapshot/memo key),
		// and stray shape parameters must survive to Validate, which
		// rejects them rather than letting defaulting erase them.
		return c
	}
	if c.Nodes == 0 {
		c.Nodes = procs
	}
	if c.HopCycles == 0 {
		c.HopCycles = 4
	}
	if c.ChannelBits == 0 {
		c.ChannelBits = 16
	}
	if c.MemCycles == 0 {
		c.MemCycles = 20
	}
	return c
}

// Validate reports configuration errors.
func (c TopologyConfig) Validate() error {
	switch {
	case c.Kind < 0 || c.Kind >= numTopologies:
		return fmt.Errorf("net: invalid topology kind %d (have %s)", int(c.Kind), strings.Join(TopologyNames(), ", "))
	case c.Nodes < 0:
		return fmt.Errorf("net: topology Nodes %d < 0", c.Nodes)
	case c.HopCycles < 0:
		return fmt.Errorf("net: topology HopCycles %d < 0", c.HopCycles)
	case c.ChannelBits < 0:
		return fmt.Errorf("net: topology ChannelBits %d < 0", c.ChannelBits)
	case c.MemCycles < 0:
		return fmt.Errorf("net: topology MemCycles %d < 0", c.MemCycles)
	}
	if !c.Enabled() && c != (TopologyConfig{}) {
		return fmt.Errorf("net: constant topology takes no parameters (got %+v)", c)
	}
	return nil
}

// memInterleaveShift block-interleaves memory across nodes in 8-cell
// blocks: consecutive cells share a module (spatial locality keeps a
// chased pointer's neighbors together) while blocks spread round-robin.
const memInterleaveShift = 3

// Network is the runtime state of a topology: each link's busy-until
// cycle plus observability counters. It is owned by one simulation and
// is not safe for concurrent use.
type Network struct {
	cfg  TopologyConfig
	base int64 // constant round trip when Kind == TopoConstant

	// Mesh geometry.
	meshW, meshH int
	// Fat-tree depth (levels of links between a leaf and the root).
	treeDepth int
	// Dragonfly group size.
	groupSize int

	// freeAt holds each directed link's busy-until cycle. A link is a
	// FIFO channel: a message entering at cycle t starts serializing at
	// max(t, freeAt), occupies the channel for its serialization time,
	// and is delivered one HopCycles propagation later, so the cycle the
	// channel frees up is all the queue state timing needs.
	freeAt []int64
	// path is the scratch route buffer, reused across round trips.
	path []int

	// Requests counts routed round trips.
	Requests int64
	// PeakQueue is the largest per-link queueing delay (cycles a
	// message waited for its channel) observed on any hop.
	PeakQueue int64
	// MaxLatency is the largest round-trip latency returned.
	MaxLatency int64
}

// NewNetwork builds the runtime for a procs-processor machine whose
// constant-mode round trip would be baseLatency cycles. The constant
// kind returns baseLatency from every RoundTrip, bit-equal to the
// legacy path.
func NewNetwork(cfg TopologyConfig, procs int, baseLatency int) *Network {
	cfg = cfg.WithDefaults(procs)
	n := &Network{cfg: cfg, base: int64(baseLatency)}
	if !cfg.Enabled() {
		return n
	}
	nodes := cfg.Nodes
	switch cfg.Kind {
	case TopoMesh:
		// Near-square factorization: W = ceil(sqrt(nodes)) and enough
		// rows to cover every node.
		w := 1
		for w*w < nodes {
			w++
		}
		h := (nodes + w - 1) / w
		n.meshW, n.meshH = w, h
		// Four directed link classes (+x, -x, +y, -y), indexed by the
		// source coordinate.
		n.freeAt = make([]int64, 4*w*h)
	case TopoFatTree:
		depth := 0
		for 1<<depth < nodes {
			depth++
		}
		if depth == 0 {
			depth = 1
		}
		n.treeDepth = depth
		// Per level l (0 = leaf): one up and one down link for each of
		// the 2^(depth-1-l)... — flattened as up/down per internal tree
		// node. Internal nodes: 2^depth - 1; links: up and down per
		// child edge = 2 * (2^depth - 1) directed pairs, but indexing by
		// (level, node-at-level, direction) is simplest.
		n.freeAt = make([]int64, 2*((1<<depth)-1)*2)
	case TopoDragonfly:
		g := 1
		for g*g < nodes {
			g++
		}
		n.groupSize = g
		groups := (nodes + g - 1) / g
		// Local links: directed router-to-router within a group,
		// indexed (group, src-in-group, dst-in-group). Global links:
		// directed group-to-group, indexed (srcGroup, dstGroup).
		n.freeAt = make([]int64, groups*g*g+groups*groups)
	}
	return n
}

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() TopologyConfig { return n.cfg }

// Diameter returns the maximum hop count of any one-way route.
func (n *Network) Diameter() int {
	switch n.cfg.Kind {
	case TopoMesh:
		return (n.meshW - 1) + (n.meshH - 1)
	case TopoFatTree:
		return 2 * n.treeDepth
	case TopoDragonfly:
		return 3 // local, global, local
	}
	return 0
}

// node maps a processor id to its network endpoint.
func (n *Network) node(proc int) int {
	if n.cfg.Nodes <= 0 {
		return 0
	}
	return proc % n.cfg.Nodes
}

// memNode maps a shared-memory address to the node holding its module.
func (n *Network) memNode(addr int64) int {
	if n.cfg.Nodes <= 0 {
		return 0
	}
	blk := addr >> memInterleaveShift
	if blk < 0 {
		blk = -blk
	}
	return int(blk % int64(n.cfg.Nodes))
}

// route appends the directed link ids of the src -> dst path to
// n.path[:0] and returns it. Routes are deterministic and minimal for
// mesh (dimension order) and dragonfly (local-global-local); the
// fat-tree route climbs to the least common ancestor and descends.
func (n *Network) route(src, dst int) []int {
	p := n.path[:0]
	if src == dst {
		n.path = p
		return p
	}
	switch n.cfg.Kind {
	case TopoMesh:
		w := n.meshW
		x, y := src%w, src/w
		dx, dy := dst%w, dst/w
		// X first, then Y: link classes 0=+x 1=-x 2=+y 3=-y, indexed by
		// the coordinate the hop leaves from.
		for x < dx {
			p = append(p, meshLink(0, x, y, w, n.meshH))
			x++
		}
		for x > dx {
			p = append(p, meshLink(1, x, y, w, n.meshH))
			x--
		}
		for y < dy {
			p = append(p, meshLink(2, x, y, w, n.meshH))
			y++
		}
		for y > dy {
			p = append(p, meshLink(3, x, y, w, n.meshH))
			y--
		}
	case TopoFatTree:
		// Climb until the two subtrees merge (the least common
		// ancestor's level), recording up-links, then descend from that
		// level recording down-links. Level l spans 2^l leaves per
		// subtree.
		lca := 0
		for src>>lca != dst>>lca {
			lca++
		}
		for level := 0; level < lca; level++ {
			p = append(p, n.treeLink(level, src>>level, 0))
		}
		for level := lca - 1; level >= 0; level-- {
			p = append(p, n.treeLink(level, dst>>level, 1))
		}
	case TopoDragonfly:
		g := n.groupSize
		groups := (n.cfg.Nodes + g - 1) / g
		sg, sr := src/g, src%g
		dg, dr := dst/g, dst%g
		if sg == dg {
			p = append(p, dflyLocal(sg, sr, dr, g))
		} else {
			// Gateway router for the (sg, dg) global link: router dg%g
			// in the source group, sg%g in the destination group — a
			// deterministic spread of global-link endpoints.
			gw1, gw2 := dg%g, sg%g
			if sr != gw1 {
				p = append(p, dflyLocal(sg, sr, gw1, g))
			}
			p = append(p, groups*g*g+sg*groups+dg)
			if gw2 != dr {
				p = append(p, dflyLocal(dg, gw2, dr, g))
			}
		}
	}
	n.path = p
	return p
}

// meshLink flattens a (direction, x, y) mesh link id.
func meshLink(dir, x, y, w, h int) int { return dir*w*h + y*w + x }

// dflyLocal flattens a within-group dragonfly link id.
func dflyLocal(group, src, dst, g int) int { return group*g*g + src*g + dst }

// treeLink flattens a fat-tree link id: level, node index at that
// level, and direction (0 = up, 1 = down).
func (n *Network) treeLink(level, nodeAtLevel, dir int) int {
	// Offset of level l's node block: sum of 2^(depth-k) for k < l.
	off := 0
	for k := 0; k < level; k++ {
		off += 1 << (n.treeDepth - k)
	}
	return 2*(off+nodeAtLevel) + dir
}

// levelOfTreeLink recovers the level of a fat-tree link id, for the
// capacity-doubling service time.
func (n *Network) levelOfTreeLink(id int) int {
	idx := id / 2
	for level := 0; level < n.treeDepth; level++ {
		span := 1 << (n.treeDepth - level)
		if idx < span {
			return level
		}
		idx -= span
	}
	return n.treeDepth - 1
}

// serviceTime is the cycles a message of the given size occupies a
// link's channel. Fat-tree channels double their capacity per level
// toward the root, the classic fat-tree provisioning.
func (n *Network) serviceTime(linkID int, bits int64) int64 {
	cb := int64(n.cfg.ChannelBits)
	if n.cfg.Kind == TopoFatTree {
		cb <<= uint(n.levelOfTreeLink(linkID))
	}
	if cb <= 0 {
		cb = 1
	}
	s := (bits + cb - 1) / cb
	if s < 1 {
		s = 1
	}
	return s
}

// traverse sends a message of the given size over one link starting at
// cycle t and returns its arrival time at the far node.
func (n *Network) traverse(linkID int, t, bits int64) int64 {
	start := max(t, n.freeAt[linkID])
	if wait := start - t; wait > n.PeakQueue {
		n.PeakQueue = wait
	}
	n.freeAt[linkID] = start + n.serviceTime(linkID, bits)
	return n.freeAt[linkID] + int64(n.cfg.HopCycles)
}

// RoundTrip routes one shared-memory access issued by processor src at
// cycle now — a request of reqBits to addr's memory module and a reply
// of replyBits back — through the link queues and returns the total
// round-trip latency in cycles. Clamped to [1, MaxRoundTrip].
func (n *Network) RoundTrip(now int64, src int, addr, reqBits, replyBits int64) int64 {
	n.Requests++
	if !n.cfg.Enabled() {
		if n.base > n.MaxLatency {
			n.MaxLatency = n.base
		}
		return n.base
	}
	s := n.node(src)
	d := n.memNode(addr)
	t := now
	for _, id := range n.route(s, d) {
		t = n.traverse(id, t, reqBits)
	}
	t += int64(n.cfg.MemCycles)
	for _, id := range n.route(d, s) {
		t = n.traverse(id, t, replyBits)
	}
	lat := t - now
	if lat < 1 {
		lat = 1
	}
	if lat > MaxRoundTrip {
		lat = MaxRoundTrip
	}
	if lat > n.MaxLatency {
		n.MaxLatency = lat
	}
	return lat
}

// NumLinks returns the size of the link array (includes links no route
// uses, e.g. mesh edges leaving the grid; they stay idle).
func (n *Network) NumLinks() int { return len(n.freeAt) }
