// Package snap is the deterministic binary codec the checkpoint layer is
// built on. The simulator's snapshot format must be byte-stable — equal
// machine states encode to equal bytes, on any host — so the codec is
// deliberately primitive: fixed-width little-endian integers, IEEE bit
// patterns for floats, length-prefixed byte strings, no reflection, no
// varints, no alignment. Framing (magic, version, checksum) is provided
// once here so every consumer versions and validates its payloads the
// same way.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Encoder appends primitives to a growing buffer. The zero value is
// ready to use for a bare payload; NewEncoder starts a framed artifact.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a framed artifact (see Open) in a buffer presized
// to size bytes: it writes magic (exactly 4 bytes) and version, the
// caller encodes the payload after them, and Seal closes the frame in
// place. A size that covers the whole artifact means no reallocation.
func NewEncoder(magic string, version uint32, size int) *Encoder {
	if len(magic) != 4 {
		panic(fmt.Sprintf("snap: magic %q must be 4 bytes", magic))
	}
	e := &Encoder{buf: make([]byte, 0, max(size, len(magic)+8))}
	e.buf = append(e.buf, magic...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, version)
	return e
}

// Seal appends the checksum over everything encoded so far and returns
// the framed artifact. Only an Encoder from NewEncoder seals into a
// frame Open accepts.
func (e *Encoder) Seal() []byte {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 as its two's-complement bit pattern.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern, so the value —
// including negative zero and NaN payloads — round-trips exactly.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Raw appends a length-prefixed byte string.
func (e *Encoder) Raw(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// I64s appends a length-prefixed []int64.
func (e *Encoder) I64s(v []int64) {
	e.U32(uint32(len(v)))
	e.buf = slices.Grow(e.buf, 8*len(v))
	for _, x := range v {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(x))
	}
}

// Bools appends a length-prefixed []bool.
func (e *Encoder) Bools(v []bool) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// Decoder reads primitives back. Errors are sticky: after the first
// failure every further read returns the zero value and Err() reports
// what went wrong, so decode sequences need only one check at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish reports an error if decoding failed or trailing bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if r := d.Remaining(); r != 0 {
		return fmt.Errorf("snap: %d trailing bytes after decode", r)
	}
	return nil
}

func (d *Decoder) fail(want string, n int) {
	if d.err == nil {
		d.err = fmt.Errorf("snap: truncated payload: need %d bytes for %s at offset %d, have %d",
			n, want, d.off, len(d.buf)-d.off)
	}
}

func (d *Decoder) take(want string, n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(want, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take("u8", 1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take("u32", 4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take("u64", 8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64, failing if it does not fit.
func (d *Decoder) Int() int {
	v := d.I64()
	n := int(v)
	if int64(n) != v && d.err == nil {
		d.err = fmt.Errorf("snap: int64 %d does not fit in int", v)
	}
	return n
}

// Bool reads a bool, failing on bytes other than 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("snap: invalid bool byte at offset %d", d.off-1)
		}
		return false
	}
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a u32 element count and fails — returning 0 — if the
// bytes that remain cannot hold that many elements of at least elemSize
// bytes each, so a corrupt count cannot force a huge allocation or a
// long loop over nothing.
func (d *Decoder) Count(elemSize int) int { return d.lenPrefix("elements", elemSize) }

// lenPrefix is Count naming what it reads in the error.
func (d *Decoder) lenPrefix(want string, elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemSize > 0 && n > d.Remaining()/elemSize {
		d.fail(want, n*elemSize)
		return 0
	}
	return n
}

// Raw reads a length-prefixed byte string (a copy).
func (d *Decoder) Raw() []byte {
	n := d.lenPrefix("bytes", 1)
	b := d.take("bytes", n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.lenPrefix("string", 1)
	b := d.take("string", n)
	return string(b)
}

// I64s reads a length-prefixed []int64. An empty sequence decodes nil.
func (d *Decoder) I64s() []int64 {
	n := d.lenPrefix("[]int64", 8)
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.I64()
	}
	return out
}

// I64sInto reads a length-prefixed []int64 into dst, failing unless
// the encoded length is len(dst). A runtime decodes its fixed-size
// arrays this way, straight into the instance its configuration built.
func (d *Decoder) I64sInto(dst []int64) {
	if b := d.fixed("[]int64", len(dst), 8); b != nil {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// BoolsInto reads a length-prefixed []bool into dst, failing unless
// the encoded length is len(dst) and every byte is 0 or 1.
func (d *Decoder) BoolsInto(dst []bool) {
	b := d.fixed("[]bool", len(dst), 1)
	for i, v := range b {
		if v > 1 {
			d.err = fmt.Errorf("snap: invalid bool byte at offset %d", d.off-len(b)+i)
			return
		}
		dst[i] = v == 1
	}
}

// fixed reads a length prefix that must equal n, then the n elements'
// bytes; it returns nil once decoding has failed.
func (d *Decoder) fixed(want string, n, elemSize int) []byte {
	if got := d.U32(); int64(got) != int64(n) && d.err == nil {
		d.err = fmt.Errorf("snap: %s of %d elements at offset %d, want %d", want, got, d.off-4, n)
	}
	return d.take(want, n*elemSize)
}

// Framing: every checkpoint artifact is
//
//	magic(4) version(u32) payload... crc32(u32)
//
// where the checksum covers magic, version and payload. The magic keeps
// unrelated files from being misread as snapshots; the version gates
// format evolution (the caller rejects versions it does not read
// instead of misdecoding); the checksum turns torn or bit-rotted
// payloads into clean errors. NewEncoder writes the head and Seal the
// checksum, so the payload is encoded straight into its frame.

// Open validates the frame around an artifact produced by Seal and
// returns its version and payload. Which versions to read is the
// caller's decision: Open does not check the version.
func Open(magic string, b []byte) (version uint32, payload []byte, err error) {
	if len(magic) != 4 {
		panic(fmt.Sprintf("snap: magic %q must be 4 bytes", magic))
	}
	if len(b) < len(magic)+8+4 {
		return 0, nil, fmt.Errorf("snap: artifact too short (%d bytes)", len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return 0, nil, fmt.Errorf("snap: checksum mismatch (stored %08x, computed %08x): corrupt artifact", sum, got)
	}
	if string(body[:4]) != magic {
		return 0, nil, fmt.Errorf("snap: bad magic %q (want %q)", string(body[:4]), magic)
	}
	return binary.LittleEndian.Uint32(body[4:8]), body[8:], nil
}
