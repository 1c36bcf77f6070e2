package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"mtsim/internal/snap"
)

// drive runs a deterministic mixed workload against a collector.
func drive(c *Collector, from, to int64) {
	for now := from; now < to; now += 10 {
		p := int(now/10) % 2
		tt := int(now/20) % 2
		c.BeginExec(p, tt, now, now-3)
		if now%30 == 0 {
			c.MarkHit()
		}
		if now%50 == 0 {
			c.AddFaultDebt(p, tt, 4)
		}
		c.EndExec(p, tt, now, 1, 2)
	}
}

// encodeState returns c's encoded state.
func encodeState(c *Collector) []byte {
	var e snap.Encoder
	c.EncodeState(&e)
	return e.Bytes()
}

// decodeState decodes b into c, which must consume all of it.
func decodeState(b []byte, c *Collector) error {
	d := snap.NewDecoder(b)
	if err := c.DecodeState(d); err != nil {
		return err
	}
	return d.Finish()
}

func TestCollectorSnapshotRestoreByteIdentity(t *testing.T) {
	// Uninterrupted run.
	full := NewCollector(2, 2)
	drive(full, 0, 1000)
	want := full.Finish(1100)

	// Same workload, paused at the midpoint via encode/decode.
	first := NewCollector(2, 2)
	drive(first, 0, 500)
	resumed := NewCollector(2, 2)
	if err := decodeState(encodeState(first), resumed); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	drive(resumed, 500, 1000)
	got := resumed.Finish(1100)

	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Fatalf("resumed metrics differ from uninterrupted:\nwant %s\ngot  %s", wj, gj)
	}
}

func TestCollectorSnapshotRoundTrip(t *testing.T) {
	c := NewCollector(3, 4)
	drive(c, 0, 700)
	st := encodeState(c)
	r := NewCollector(3, 4)
	if err := decodeState(st, r); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if !bytes.Equal(st, encodeState(r)) {
		t.Fatal("encode -> decode -> encode is not the identity")
	}
}

func TestRestoreCollectorShapeMismatch(t *testing.T) {
	st := encodeState(NewCollector(2, 2))
	if err := decodeState(st, NewCollector(3, 2)); err == nil {
		t.Error("wrong proc count accepted")
	}
	if err := decodeState(st, NewCollector(2, 3)); err == nil {
		t.Error("wrong thread count accepted")
	}
}
