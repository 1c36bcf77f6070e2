package cache

import (
	"bytes"
	"reflect"
	"testing"

	"mtsim/internal/snap"
)

// exercise drives a cache through a deterministic access pattern.
func exercise(c *Cache, seed int64) {
	for i := int64(0); i < 200; i++ {
		addr := (seed*31 + i*7) % 512
		if !c.Lookup(addr) {
			c.Fill(addr)
		}
		if i%3 == 0 {
			c.SetDirty(addr)
		}
		if i%11 == 0 {
			c.Invalidate((addr + 64) % 512)
		}
	}
}

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

// decodeDirectory decodes b into d for a machine of procs processors.
func decodeDirectory(b []byte, d *Directory, procs int) error {
	return decodeState(b, func(dec *snap.Decoder) error { return d.DecodeState(dec, procs) })
}

func TestCacheSnapshotRestore(t *testing.T) {
	cfg := Config{Lines: 16, LineCells: 4, Assoc: 2}
	a := MustNew(cfg)
	exercise(a, 3)

	b := MustNew(cfg)
	if err := decodeState(encodeState(a.EncodeState), b.DecodeState); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}

	// The restored cache must behave identically from here on.
	exercise(a, 5)
	exercise(b, 5)
	if !bytes.Equal(encodeState(a.EncodeState), encodeState(b.EncodeState)) {
		t.Fatal("restored cache diverged from original")
	}
	if a.Hits != b.Hits || a.Misses != b.Misses || a.Evictions != b.Evictions || a.Invals != b.Invals {
		t.Fatal("statistics diverged")
	}
}

// TestCacheSnapshotIsACopy: the encoding holds the cache's state at the
// time it was written, whatever the cache does afterwards.
func TestCacheSnapshotIsACopy(t *testing.T) {
	cfg := Config{Lines: 8, LineCells: 2, Assoc: 1}
	c := MustNew(cfg)
	exercise(c, 1)
	st := encodeState(c.EncodeState)
	exercise(c, 2)
	if bytes.Equal(encodeState(c.EncodeState), st) {
		t.Fatal("exercise left the cache unchanged; the test proves nothing")
	}
	r := MustNew(cfg)
	if err := decodeState(st, r.DecodeState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeState(r.EncodeState), st) {
		t.Fatal("encoded state aliases cache internals")
	}
}

func TestCacheRestoreShapeMismatch(t *testing.T) {
	small := MustNew(Config{Lines: 8, LineCells: 2, Assoc: 1})
	big := MustNew(Config{Lines: 16, LineCells: 2, Assoc: 1})
	if err := decodeState(encodeState(small.EncodeState), big.DecodeState); err == nil {
		t.Fatal("restore across configs must fail")
	}
}

func TestDirectorySnapshotRestore(t *testing.T) {
	d := NewDirectory()
	d.AddSharer(10, 2)
	d.AddSharer(10, 0)
	d.AddSharer(10, 1)
	d.AddSharer(3, 7)
	d.RemoveSharer(10, 0) // swap-remove: order becomes [2 1]

	st := encodeState(d.EncodeState)
	r := NewDirectory()
	r.AddSharer(99, 1) // decoding replaces what was there
	if err := decodeDirectory(st, r, 8); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}

	// Sharer order is observable; the restored directory must preserve
	// it exactly.
	want := d.Sharers(10, nil)
	got := r.Sharers(10, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sharers of line 10: want %v, got %v", want, got)
	}
	if !bytes.Equal(st, encodeState(r.EncodeState)) {
		t.Fatal("round-trip changed directory contents")
	}
}

func TestDirectorySnapshotDeterministic(t *testing.T) {
	d := NewDirectory()
	for line := int64(0); line < 50; line++ {
		d.AddSharer(line*13%17, int32(line%4))
	}
	if !bytes.Equal(encodeState(d.EncodeState), encodeState(d.EncodeState)) {
		t.Fatal("encoding of the same directory differs between calls")
	}
}

// TestRestoreDirectoryRejectsMalformed: DecodeState rejects every
// directory EncodeState cannot write.
func TestRestoreDirectoryRejectsMalformed(t *testing.T) {
	// section encodes lines, each with its sharer list.
	section := func(lines []int64, sharers ...[]int64) []byte {
		var e snap.Encoder
		e.U32(uint32(len(lines)))
		for i, line := range lines {
			e.I64(line)
			e.U32(uint32(len(sharers[i])))
			for _, p := range sharers[i] {
				e.I64(p)
			}
		}
		return e.Bytes()
	}
	if err := decodeDirectory(section([]int64{1, 4}, []int64{0}, []int64{2, 1}), NewDirectory(), 4); err != nil {
		t.Fatalf("well-formed directory rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"lines out of order":    section([]int64{4, 1}, []int64{0}, []int64{1}),
		"repeated line":         section([]int64{4, 4}, []int64{0}, []int64{1}),
		"empty sharer list":     section([]int64{1}, []int64{}),
		"sharer out of range":   section([]int64{1}, []int64{4}),
		"negative sharer":       section([]int64{1}, []int64{-1}),
		"repeated sharer":       section([]int64{1}, []int64{0, 1, 0}),
		"truncated sharer list": section([]int64{1}, []int64{0, 1})[:4+8+4+8],
	} {
		if err := decodeDirectory(b, NewDirectory(), 4); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWindowSnapshotRestore(t *testing.T) {
	a := NewWindow(16)
	a.Probe(100, 50)
	a.Probe(101, 60)
	a.Probe(400, 70)

	b := NewWindow(16)
	if err := decodeState(encodeState(a.EncodeState), b.DecodeState); err != nil {
		t.Fatal(err)
	}

	ra, ha := a.Probe(401, 99)
	rb, hb := b.Probe(401, 99)
	if ra != rb || ha != hb {
		t.Fatalf("restored window diverged: (%d,%v) vs (%d,%v)", ra, ha, rb, hb)
	}
	if a.Hits != b.Hits || a.Misses != b.Misses {
		t.Fatal("window statistics diverged")
	}
}
