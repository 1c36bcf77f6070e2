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
	cfg := FaultConfig{
		Enabled: true, Seed: 42, Dist: DistUniform, Spread: 30,
		DropRate: 0.2, DupRate: 0.1, DelayRate: 0.15,
	}
	a := NewFaultPlan(cfg, 200)
	for i := int64(0); i < 300; i++ {
		a.Deliver(i*10, 200)
	}

	b := NewFaultPlan(cfg, 200)
	roundTrip(t, a.EncodeState, b.DecodeState)

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
	if err := decodeState(b, p.DecodeState); err == nil {
		t.Fatal("zero rng state accepted")
	}
}
