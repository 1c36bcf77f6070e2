package machine

import "math/bits"

// The event wheel is the run loop's calendar queue: a power-of-two ring
// of per-cycle buckets, each a bitmap over processor ids. A processor
// appears in exactly one bucket — the one for its wake cycle — because
// wake times only move forward and only when the processor dispatches,
// so popping a bucket and reinserting at the new wake keeps the bit and
// sim.wakes in lockstep. sim.wakes stays the canonical event state (it
// is what snapshots encode and what pauses preserve); the wheel is a
// derived index over it, rebuilt lazily after a restore.
//
// Bitmap buckets keep the one ordering rule the interpreter guarantees:
// processors sharing a cycle execute in ascending id order, which is
// exactly bit order. A second bitmap holds one occupancy bit per
// bucket, so finding the next event is a trailing-zeros scan over 32
// words rather than a probe of every cycle in between. Wakes beyond the
// ring's horizon sit in an overflow list (far) that migrates into the
// ring as the clock approaches; the validation compare on pop makes the
// structure robust to any residual aliasing rather than relying on the
// horizon argument alone.

const (
	wheelBits = 11 // 2048-cycle ring: beyond typical latency+congestion wakes
	wheelSize = int64(1) << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

type eventWheel struct {
	buckets []uint64 // wheelSize buckets of `words` adjacent uint64s
	words   int64    // bitmap words per bucket: ceil(procs/64)
	// occ has bit b set while any word of bucket b is non-zero.
	occ    [occWords]uint64
	far    []int32 // procs whose wake lies beyond the ring horizon
	farMin int64   // earliest far wake (never when far is empty)
}

// buildWheel indexes every live processor's wake time, anchored at now.
func (sim *m) buildWheel(now int64) {
	words := int64(len(sim.procs)+63) / 64
	sim.wheel = &eventWheel{
		buckets: make([]uint64, wheelSize*words),
		words:   words,
		farMin:  never,
	}
	for pi, w := range sim.wakes {
		if w != never {
			sim.wheelInsert(pi, w, now)
		}
	}
}

// wheelInsert schedules processor pi's next event at cycle w (>= now).
func (sim *m) wheelInsert(pi int, w, now int64) {
	wh := sim.wheel
	if w-now < wheelSize {
		wh.set(pi, w)
		return
	}
	wh.far = append(wh.far, int32(pi))
	if w < wh.farMin {
		wh.farMin = w
	}
}

// set puts processor pi in the bucket of cycle w.
func (wh *eventWheel) set(pi int, w int64) {
	b := w & wheelMask
	wh.buckets[b*wh.words+int64(pi>>6)] |= 1 << (uint(pi) & 63)
	wh.occ[b>>6] |= 1 << (uint(b) & 63)
}

// migrateFar moves overflow entries whose wake now fits the ring window
// [c, c+wheelSize) into their buckets.
func (sim *m) migrateFar(c int64) {
	wh := sim.wheel
	kept := wh.far[:0]
	min := int64(never)
	for _, pi := range wh.far {
		w := sim.wakes[pi]
		if w-c < wheelSize {
			wh.set(int(pi), w)
			continue
		}
		kept = append(kept, pi)
		if w < min {
			min = w
		}
	}
	wh.far = kept
	wh.farMin = min
}

// nextOccupied returns the first cycle in [c, c+wheelSize) whose bucket
// is non-empty, scanning the occupancy words circularly from c's.
func (wh *eventWheel) nextOccupied(c int64) (int64, bool) {
	lo := uint(c & 63)
	base := c - int64(lo) // the cycle of bit 0 of c's occupancy word
	wi := (c & wheelMask) >> 6
	word := wh.occ[wi] >> lo << lo // buckets before c wait a full turn
	for i := int64(0); ; i++ {
		if word != 0 {
			return base + 64*i + int64(bits.TrailingZeros64(word)), true
		}
		if i == occWords {
			return 0, false
		}
		// At i+1 == occWords this is c's own word again, whose buckets
		// before c are the last of the turn.
		word = wh.occ[(wi+i+1)&(occWords-1)]
	}
}

// nextEvent finds the earliest cycle >= from with a scheduled event. It
// reports ok=false when no processor has one (live threads deadlocked).
// The overflow list migrates at the first cycle the scan reaches at or
// past its earliest wake, so the ring never skips a far event.
func (sim *m) nextEvent(from int64) (int64, bool) {
	wh := sim.wheel
	c := from
	for {
		if wh.farMin <= c {
			sim.migrateFar(c)
		}
		next, ok := wh.nextOccupied(c)
		if ok && next < wh.farMin {
			return next, true
		}
		if len(wh.far) == 0 {
			return 0, false
		}
		c = wh.farMin
	}
}

// popAndRun executes every processor due at cycle now, in ascending id
// order, reinserting each at its new wake. The validation compare skips
// (and reschedules) any bit whose processor is not actually due. The
// bucket's occupancy bit clears only once all of its words are empty.
func (sim *m) popAndRun(now int64) error {
	wh := sim.wheel
	b := now & wheelMask
	off := b * wh.words
	for wi := int64(0); wi < wh.words; wi++ {
		word := wh.buckets[off+wi]
		if word == 0 {
			continue
		}
		wh.buckets[off+wi] = 0
		base := int(wi) << 6
		for word != 0 {
			pi := base + bits.TrailingZeros64(word)
			word &= word - 1
			if sim.wakes[pi] != now {
				sim.wheelInsert(pi, sim.wakes[pi], now)
				continue
			}
			if err := sim.execOne(&sim.procs[pi], now); err != nil {
				return err
			}
			if w := sim.wakes[pi]; w != never {
				sim.wheelInsert(pi, w, now)
			}
		}
	}
	for wi := int64(0); wi < wh.words; wi++ {
		if wh.buckets[off+wi] != 0 {
			return nil
		}
	}
	wh.occ[b>>6] &^= 1 << (uint(b) & 63)
	return nil
}
