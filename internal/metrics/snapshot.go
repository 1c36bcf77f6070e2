package metrics

import (
	"fmt"

	"mtsim/internal/snap"
)

// This file is the Collector's share of the machine snapshot. A
// paused-and-resumed run must produce a RunMetrics record
// byte-identical to an uninterrupted one, so the state carries every
// timeline exactly: the open end of each accounted span, the pending
// fault-recovery debt, and the state counters.

// EncodeState writes the processor timelines, the thread timelines
// (proc-major, the collector's own layout), then the
// between-BeginExec-and-EndExec cache-hit mark. The machine pauses only
// at instruction boundaries, where the mark is always false, but it is
// carried so the state is complete by construction.
func (c *Collector) EncodeState(e *snap.Encoder) {
	encodeAccts(e, c.procs)
	encodeAccts(e, c.threads)
	e.Bool(c.hit)
}

// DecodeState overwrites the collector's state with what EncodeState
// wrote from a collector of the same shape; any other shape is
// rejected.
func (c *Collector) DecodeState(d *snap.Decoder) error {
	if err := decodeAccts(d, c.procs); err != nil {
		return err
	}
	if err := decodeAccts(d, c.threads); err != nil {
		return err
	}
	c.hit = d.Bool()
	return d.Err()
}

func encodeAccts(e *snap.Encoder, as []acct) {
	e.U32(uint32(len(as)))
	for i := range as {
		a := &as[i]
		e.I64(a.lastEnd)
		e.I64(a.faultDebt)
		for _, v := range a.states {
			e.I64(v)
		}
	}
}

func decodeAccts(d *snap.Decoder, as []acct) error {
	if n := d.U32(); int64(n) != int64(len(as)) && d.Err() == nil {
		return fmt.Errorf("metrics: snapshot has %d timelines where the collector has %d", n, len(as))
	}
	for i := range as {
		a := &as[i]
		a.lastEnd = d.I64()
		a.faultDebt = d.I64()
		for s := range a.states {
			a.states[s] = d.I64()
		}
	}
	return d.Err()
}
