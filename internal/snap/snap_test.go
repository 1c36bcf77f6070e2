package snap

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.U32(0xDEADBEEF)
	e.U64(1<<63 | 12345)
	e.I64(-42)
	e.Int(987654321)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Copysign(0, -1))
	e.F64(3.14159)
	e.Raw([]byte{1, 2, 3})
	e.String("hello")
	e.I64s([]int64{-1, 0, 1})
	e.Bools([]bool{true, false, true})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := d.U64(); got != 1<<63|12345 {
		t.Errorf("U64 = %x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 987654321 {
		t.Errorf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 negative zero = %v", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Raw(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.I64s(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("I64s = %v", got)
	}
	got := make([]bool, 3)
	if d.BoolsInto(got); !got[0] || got[1] || !got[2] {
		t.Errorf("Bools = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		var e Encoder
		e.I64s([]int64{5, 6, 7})
		e.F64(1.5)
		e.String("x")
		return e.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical inputs encoded differently")
	}
}

func TestStickyErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2}) // too short for a u64
	_ = d.U64()
	if d.Err() == nil {
		t.Fatal("want truncation error")
	}
	// Every further read stays failed and returns zero values.
	if v := d.I64(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if s := d.String(); s != "" {
		t.Errorf("string after error = %q", s)
	}
	if err := d.Finish(); err == nil {
		t.Fatal("Finish must report the sticky error")
	}
}

func TestBadBoolByte(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "bool") {
		t.Fatalf("want bool error, got %v", d.Err())
	}
}

func TestTrailingBytes(t *testing.T) {
	var e Encoder
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	var e Encoder
	e.U32(1 << 30) // claims a billion elements with no data behind it
	d := NewDecoder(e.Bytes())
	if got := d.I64s(); got != nil {
		t.Errorf("I64s on corrupt length = %v", got)
	}
	if d.Err() == nil {
		t.Fatal("want truncation error from corrupt length prefix")
	}
}

// TestFixedLengthReads: I64sInto and BoolsInto fill a caller's array
// in place and reject an encoded length other than the array's, or a
// bool byte other than 0 or 1.
func TestFixedLengthReads(t *testing.T) {
	var e Encoder
	e.I64s([]int64{4, -5})
	e.Bools([]bool{false, true})
	d := NewDecoder(e.Bytes())
	ints, bools := make([]int64, 2), make([]bool, 2)
	d.I64sInto(ints)
	d.BoolsInto(bools)
	if err := d.Finish(); err != nil || ints[0] != 4 || ints[1] != -5 || bools[0] || !bools[1] {
		t.Fatalf("got %v %v (err %v)", ints, bools, err)
	}

	d = NewDecoder(e.Bytes())
	d.I64sInto(make([]int64, 3))
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "want 3") {
		t.Errorf("length mismatch: err = %v", d.Err())
	}

	bad := append([]byte(nil), e.Bytes()...)
	bad[len(bad)-1] = 2
	d = NewDecoder(bad)
	d.I64sInto(ints)
	d.BoolsInto(bools)
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "bool") {
		t.Errorf("bool byte 2: err = %v", d.Err())
	}
}

func TestSealOpen(t *testing.T) {
	payload := []byte("payload bytes")
	e := NewEncoder("TEST", 3, 0)
	for _, b := range payload {
		e.U8(b)
	}
	sealed := e.Seal()

	v, got, err := Open("TEST", sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("Open = v%d %q", v, got)
	}

	// Wrong magic.
	if _, _, err := Open("NOPE", sealed); err == nil {
		t.Error("wrong magic accepted")
	}
	// Flipped bit -> checksum failure.
	bad := append([]byte(nil), sealed...)
	bad[6] ^= 0x40
	if _, _, err := Open("TEST", bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption not detected: %v", err)
	}
	// Truncation.
	if _, _, err := Open("TEST", sealed[:5]); err == nil {
		t.Error("truncated artifact accepted")
	}
}
