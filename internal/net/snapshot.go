package net

import (
	"fmt"

	"mtsim/internal/rng"
	"mtsim/internal/snap"
)

// This file is the package's share of the machine snapshot: each
// runtime (Traffic, Congestion, Network, FaultPlan) encodes exactly the
// fields its behavior depends on, and decodes them back into an
// instance built from the same configuration, which is not part of the
// state. Floats are encoded bit-exactly (snap.Encoder.F64): the
// congestion model's decayed window is extremely sensitive to rounding.

// EncodeState writes the accumulator's counters.
func (tr *Traffic) EncodeState(e *snap.Encoder) {
	for i := range tr.Count {
		e.I64(tr.Count[i])
		e.I64(tr.bits[i])
	}
	e.I64(tr.SpinCount)
	e.I64(tr.SpinBits)
}

// DecodeState overwrites the accumulator with the counters EncodeState
// wrote.
func (tr *Traffic) DecodeState(d *snap.Decoder) error {
	for i := range tr.Count {
		tr.Count[i] = d.I64()
		tr.bits[i] = d.I64()
	}
	tr.SpinCount = d.I64()
	tr.SpinBits = d.I64()
	return d.Err()
}

// EncodeState writes the runtime state. The decayed averages, restored
// bit-exactly together with the last update time, reproduce every
// future latency sample exactly.
func (g *Congestion) EncodeState(e *snap.Encoder) {
	e.I64(g.lastUpdate)
	e.F64(g.windowBits)
	e.F64(g.msgs)
	e.F64(g.PeakUtilization)
}

// DecodeState overwrites the runtime state with what EncodeState wrote.
func (g *Congestion) DecodeState(d *snap.Decoder) error {
	g.lastUpdate = d.I64()
	g.windowBits = d.F64()
	g.msgs = d.F64()
	g.PeakUtilization = d.F64()
	return d.Err()
}

// EncodeState writes every link's busy-until cycle, then the
// observability counters.
func (n *Network) EncodeState(e *snap.Encoder) {
	e.I64s(n.freeAt)
	e.I64(n.Requests)
	e.I64(n.PeakQueue)
	e.I64(n.MaxLatency)
}

// DecodeState overwrites the network's run state with what EncodeState
// wrote. The configuration's geometry pins the link count, so a
// different count means the snapshot was taken under another topology.
// queued reads the layout of machine snapshot format 4, which also
// carried each link's message counters and the departure times of its
// in-flight messages. Timing never read them: a link's books must
// balance, as that format's reader required, and are then dropped.
func (n *Network) DecodeState(d *snap.Decoder, queued bool) error {
	if links := d.U32(); int64(links) != int64(len(n.freeAt)) && d.Err() == nil {
		return fmt.Errorf("net: topology snapshot has %d links, network has %d", links, len(n.freeAt))
	}
	for i := range n.freeAt {
		n.freeAt[i] = d.I64()
		if !queued {
			continue
		}
		enqueued, drained, pending := d.I64(), d.I64(), d.Count(8)
		for j := 0; j < pending; j++ {
			d.I64()
		}
		if d.Err() != nil {
			return d.Err()
		}
		if enqueued != drained+int64(pending) {
			return fmt.Errorf("net: topology snapshot link %d counters inconsistent (%d enqueued != %d drained + %d pending)",
				i, enqueued, drained, pending)
		}
	}
	n.Requests = d.I64()
	n.PeakQueue = d.I64()
	n.MaxLatency = d.I64()
	return d.Err()
}

// EncodeState writes the plan's run state. Because Fork derives each
// access's substream from the root's state without advancing it (see
// rng.Fork), the root state plus the sequence counter pin every future
// delivery decision; no per-substream position needs saving.
func (f *FaultPlan) EncodeState(e *snap.Encoder) {
	e.U64(f.root.State())
	e.U64(f.seq)
	e.I64(f.lastOverhead)
	for _, v := range f.Stats.counters() {
		e.I64(*v)
	}
}

// DecodeState overwrites the plan's run state with what EncodeState
// wrote. The root state of a live generator is never zero; a zero
// means a corrupt or hand-built snapshot. hot reads the layout of
// machine snapshot format 4, which counted hot-spot accesses before
// Exhausted; no plan draws one, so that count must be zero.
func (f *FaultPlan) DecodeState(d *snap.Decoder, hot bool) error {
	root := d.U64()
	f.seq = d.U64()
	f.lastOverhead = d.I64()
	c := f.Stats.counters()
	for i, v := range c {
		if hot && i == len(c)-1 && d.I64() != 0 && d.Err() == nil {
			return fmt.Errorf("net: fault-plan snapshot counts hot-spot accesses")
		}
		*v = d.I64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	if root == 0 {
		return fmt.Errorf("net: fault-plan snapshot has zero rng state")
	}
	f.root = rng.FromState(root)
	return nil
}

// counters lists the statistics in their snapshot order.
func (s *FaultStats) counters() [7]*int64 {
	return [...]*int64{&s.Drops, &s.Dups, &s.Delays, &s.Timeouts, &s.Retries, &s.BackoffCycles, &s.Exhausted}
}
