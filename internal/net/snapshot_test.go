package net

import (
	"encoding/binary"
	"reflect"
	"testing"

	"mtsim/internal/snap"
)

// encodeState returns what encode writes.
func encodeState(encode func(*snap.Encoder)) []byte {
	var e snap.Encoder
	encode(&e)
	return e.Bytes()
}

// decodeState decodes b with decode, which must consume all of it.
func decodeState(b []byte, decode func(*snap.Decoder) error) error {
	d := snap.NewDecoder(b)
	if err := decode(d); err != nil {
		return err
	}
	return d.Finish()
}

// roundTrip decodes what encode writes with decode.
func roundTrip(t *testing.T, encode func(*snap.Encoder), decode func(*snap.Decoder) error) {
	t.Helper()
	if err := decodeState(encodeState(encode), decode); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
}

func TestTrafficSnapshotRestore(t *testing.T) {
	var a Traffic
	a.Add(ReadReq, 0)
	a.Add(ReadReply, WordBits)
	a.Add(WriteBack, DoubleBits)
	a.AddSpin(FaaReq, WordBits)

	var b Traffic
	roundTrip(t, a.EncodeState, b.DecodeState)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("restored traffic differs: %+v vs %+v", a, b)
	}
	// Totals (which read the unexported bits array) must agree too.
	if a.Bits() != b.Bits() || a.Messages() != b.Messages() {
		t.Fatal("derived totals differ after restore")
	}
}

func TestCongestionSnapshotRestore(t *testing.T) {
	cfg := CongestionConfig{Enabled: true, Window: 128}
	a := NewCongestion(cfg, 16)
	for i := int64(0); i < 500; i += 7 {
		a.Add(i, 64+i%5)
		a.Latency(i + 3)
	}

	b := NewCongestion(cfg, 16)
	roundTrip(t, a.EncodeState, b.DecodeState)

	// Identical state must yield bit-identical future samples: the
	// decayed floats are restored via their exact values.
	for i := int64(500); i < 900; i += 11 {
		a.Add(i, 96)
		b.Add(i, 96)
		if la, lb := a.Latency(i+5), b.Latency(i+5); la != lb {
			t.Fatalf("latency diverged at %d: %d vs %d", i, la, lb)
		}
	}
	if a.PeakUtilization != b.PeakUtilization {
		t.Fatal("peak utilization diverged")
	}
}

func TestFaultPlanSnapshotRestore(t *testing.T) {
	cfg := FaultConfig{Enabled: true, Seed: 42, DropRate: 0.2, DupRate: 0.1, DelayRate: 0.15}
	a := NewFaultPlan(cfg, 200)
	for i := int64(0); i < 300; i++ {
		a.Deliver(i*10, 200)
	}

	b := NewFaultPlan(cfg, 200)
	roundTrip(t, a.EncodeState, func(d *snap.Decoder) error { return b.DecodeState(d, false) })

	// Every future delivery — outcome, overhead, stats — must match.
	for i := int64(300); i < 600; i++ {
		ra, rb := a.Deliver(i*10, 200), b.Deliver(i*10, 200)
		if ra != rb {
			t.Fatalf("delivery %d diverged: %d vs %d", i, ra, rb)
		}
		if a.LastOverhead() != b.LastOverhead() {
			t.Fatalf("overhead diverged at %d", i)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestFaultPlanRestoreRejectsZeroState(t *testing.T) {
	p := NewFaultPlan(FaultConfig{Enabled: true, Seed: 1}, 100)
	b := encodeState(p.EncodeState)
	binary.LittleEndian.PutUint64(b, 0) // the rng root comes first
	if err := decodeState(b, func(d *snap.Decoder) error { return p.DecodeState(d, false) }); err == nil {
		t.Fatal("zero rng state accepted")
	}
}

// TestFaultPlanRestoresHotLayout: the layout of machine snapshot
// formats 1 to 4 counts hot-spot accesses between BackoffCycles and
// Exhausted. A zero count restores the other counters in place; a
// nonzero one was drawn by a delay model this package no longer has.
func TestFaultPlanRestoresHotLayout(t *testing.T) {
	legacy := func(hot int64) []byte {
		var e snap.Encoder
		e.U64(1234) // rng root
		e.U64(9)    // seq
		e.I64(3)    // lastOverhead
		for _, v := range []int64{1, 2, 3, 4, 5, 6, hot, 7} {
			e.I64(v)
		}
		return e.Bytes()
	}
	p := NewFaultPlan(FaultConfig{Enabled: true, Seed: 1}, 100)
	hot := func(d *snap.Decoder) error { return p.DecodeState(d, true) }
	if err := decodeState(legacy(0), hot); err != nil {
		t.Fatalf("zero hot-spot count rejected: %v", err)
	}
	want := FaultStats{Drops: 1, Dups: 2, Delays: 3, Timeouts: 4, Retries: 5, BackoffCycles: 6, Exhausted: 7}
	if p.Stats != want || p.LastOverhead() != 3 {
		t.Errorf("restored %+v (overhead %d), want %+v (overhead 3)", p.Stats, p.LastOverhead(), want)
	}
	if err := decodeState(legacy(1), hot); err == nil {
		t.Error("nonzero hot-spot count accepted")
	}
}
