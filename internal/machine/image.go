package machine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"mtsim/internal/prog"
)

// Image is a program's initial shared memory: what the application's
// host-side setup — the serial initialization the paper excludes from
// measurement (§3.2) — leaves in it before the forked phase. It is
// built once, on first use, is immutable after, and carries a content
// hash. A machine starts from a copy of it, and a snapshot encodes
// shared memory as the runs of words that differ from it, so restoring
// one takes the same image, verified by hash.
//
// A nil *Image is the all-zero memory of a program without setup.
type Image struct {
	size   int64
	frozen func() frozenImage
}

// frozenImage is a built image: its cells and their content hash.
type frozenImage struct {
	cells []int64
	hash  uint64
}

// NewImage returns the image init leaves in p's shared memory. init
// runs once, on the image's first use; if it panics, every use panics
// with the same value. Programs with the same shared layout (an
// application's raw and grouped variants) share one image.
func NewImage(p *prog.Program, init func(*Shared)) *Image {
	return &Image{size: p.Shared.Size(), frozen: sync.OnceValue(func() frozenImage {
		s := NewShared(p)
		if init != nil {
			init(s)
		}
		return frozenImage{cells: s.cells, hash: hashCells(s.cells)}
	})}
}

// Fill copies the image into s, which must be a shared memory of the
// image's size. A nil image leaves s as it is. Fill is the init
// function form of an image, for Run and its variants.
func (img *Image) Fill(s *Shared) {
	if img == nil {
		return
	}
	cells := img.frozen().cells
	if len(s.cells) != len(cells) {
		panic(fmt.Sprintf("machine: image of %d cells filling shared memory of %d", len(cells), len(s.cells)))
	}
	copy(s.cells, cells)
}

// Hash returns the image's content hash (0 for the nil image).
func (img *Image) Hash() uint64 {
	if img == nil {
		return 0
	}
	return img.frozen().hash
}

// cells returns the image's words (nil for the nil image).
func (img *Image) cells() []int64 {
	if img == nil {
		return nil
	}
	return img.frozen().cells
}

// check reports whether the image fits p's shared memory.
func (img *Image) check(p *prog.Program) error {
	if img != nil && img.size != p.Shared.Size() {
		return fmt.Errorf("machine: image of %d cells does not fit program %q (%d shared cells)", img.size, p.Name, p.Shared.Size())
	}
	return nil
}

// hashCells is FNV-1a over the cell count and every cell's
// little-endian bytes.
func hashCells(cells []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(cells)))
	h.Write(b[:])
	for _, c := range cells {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}
