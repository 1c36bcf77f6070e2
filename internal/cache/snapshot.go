package cache

import (
	"fmt"
	"slices"

	"mtsim/internal/snap"
)

// This file is the package's share of the machine snapshot: every piece
// of mutable run state — cache arrays, LRU clock, directory sharer
// lists, window contents, statistics — encoded by its runtime and
// decoded back bit-exactly into an instance built from the restoring
// side's own Config. The configuration is deliberately not part of the
// state: the state must fit the instance it built, which catches
// snapshot/config mismatches instead of silently misindexing.

// EncodeState writes the cache's mutable state.
func (c *Cache) EncodeState(e *snap.Encoder) {
	e.I64s(c.tags)
	e.Bools(c.valid)
	e.Bools(c.dirty)
	e.I64s(c.age)
	e.I64(c.ageTick)
	e.I64(c.Hits)
	e.I64(c.Misses)
	e.I64(c.Evictions)
	e.I64(c.Invals)
}

// DecodeState overwrites the cache's mutable state with what
// EncodeState wrote from a cache of the same configuration; arrays of
// any other length are rejected.
func (c *Cache) DecodeState(d *snap.Decoder) error {
	d.I64sInto(c.tags)
	d.BoolsInto(c.valid)
	d.BoolsInto(c.dirty)
	d.I64sInto(c.age)
	c.ageTick = d.I64()
	c.Hits, c.Misses = d.I64(), d.I64()
	c.Evictions, c.Invals = d.I64(), d.I64()
	return d.Err()
}

// EncodeState writes the directory's lines in ascending order (the
// map's order must not leak into the bytes, so equal directories encode
// equally), each with its sharers in insertion order, which Sharers
// makes observable.
func (d *Directory) EncodeState(e *snap.Encoder) {
	lines := d.Lines(nil)
	e.U32(uint32(len(lines)))
	for _, line := range lines {
		s := d.sharers[line]
		e.I64(line)
		e.U32(uint32(len(s)))
		for _, p := range s {
			e.I64(int64(p))
		}
	}
}

// DecodeState replaces the directory's contents with what EncodeState
// wrote for a machine of procs processors. It rejects anything
// EncodeState cannot write: lines out of order, and a sharer list that
// is empty, names a processor outside [0, procs) or names one twice.
func (d *Directory) DecodeState(dec *snap.Decoder, procs int) error {
	clear(d.sharers)
	n := dec.Count(8 + 4)
	var prev int64
	for i := 0; i < n; i++ {
		line := dec.I64()
		ns := dec.Count(8)
		switch {
		case dec.Err() != nil:
			return dec.Err()
		case i > 0 && line <= prev:
			return fmt.Errorf("cache: directory lines out of order")
		case ns == 0:
			return fmt.Errorf("cache: directory line %d has no sharers", line)
		}
		s := make([]int32, 0, ns)
		for j := 0; j < ns; j++ {
			p := dec.I64()
			switch {
			case dec.Err() != nil:
				return dec.Err()
			case p < 0 || p >= int64(procs):
				return fmt.Errorf("cache: directory line %d sharer %d out of range [0,%d)", line, p, procs)
			case slices.Contains(s, int32(p)):
				return fmt.Errorf("cache: directory line %d lists sharer %d twice", line, p)
			}
			s = append(s, int32(p))
		}
		d.sharers[line] = s
		prev = line
	}
	return dec.Err()
}

// EncodeState writes the window's state (the line-size shift is
// configuration).
func (w *Window) EncodeState(e *snap.Encoder) {
	e.I64(w.line)
	e.I64(w.readyAt)
	e.Bool(w.valid)
	e.I64(w.Hits)
	e.I64(w.Misses)
}

// DecodeState overwrites the window's state with what EncodeState wrote.
func (w *Window) DecodeState(d *snap.Decoder) error {
	w.line, w.readyAt, w.valid = d.I64(), d.I64(), d.Bool()
	w.Hits, w.Misses = d.I64(), d.I64()
	return d.Err()
}
