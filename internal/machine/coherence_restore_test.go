package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"mtsim/internal/cache"
	"mtsim/internal/prog"
	"mtsim/internal/snap"
)

// TestRestoreRejectsIncoherentDirectory hand-builds snapshots whose
// coherence state no run can reach, at least one per invariant
// checkCoherence enforces, and checks that each is rejected as a
// mismatch while the coherent state they start from restores.
func TestRestoreRejectsIncoherentDirectory(t *testing.T) {
	b := prog.NewBuilder("coherence")
	b.Shared("data", 64)
	b.Halt()
	p := b.MustBuild()
	cfg := Config{Procs: 2, Threads: 1, Model: SwitchOnMiss, Cache: cache.Config{Lines: 8, LineCells: 4, Assoc: 2}}

	// coherent returns a machine paused at cycle 0 whose processors both
	// hold line 1 clean, and whose processor 1 owns line 2 dirty.
	coherent := func(t *testing.T) *Machine {
		mc, err := NewMachine(cfg, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			proc int32
			line int64
		}{{0, 1}, {1, 1}, {1, 2}} {
			mc.sim.procs[c.proc].cache.Fill(c.line * 4)
			mc.sim.dir.AddSharer(c.line, c.proc)
		}
		mc.sim.procs[1].cache.SetDirty(2 * 4)
		mc.sim.dirtyOwner[2] = 1
		return mc
	}
	snapshot := func(t *testing.T, mc *Machine) []byte {
		data, err := mc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	if _, err := RestoreMachine(snapshot(t, coherent(t)), p, nil); err != nil {
		t.Fatalf("coherent snapshot rejected: %v", err)
	}

	cases := []struct {
		name, want string
		build      func(t *testing.T) []byte
	}{
		{"repeated sharer", "twice", func(t *testing.T) []byte {
			mc := coherent(t)
			data := snapshot(t, mc)
			// Splice a directory listing processor 0 twice for line 1
			// over the one the encoder wrote, and reseal the frame.
			var good snap.Encoder
			mc.sim.dir.EncodeState(&good)
			var bad snap.Encoder
			bad.U32(2)
			bad.I64(1)
			bad.U32(3)
			for _, p := range []int64{0, 1, 0} {
				bad.I64(p)
			}
			bad.I64(2)
			bad.U32(1)
			bad.I64(1)
			if n := bytes.Count(data, good.Bytes()); n != 1 {
				t.Fatalf("directory section found %d times in the snapshot", n)
			}
			data = bytes.Replace(data, good.Bytes(), bad.Bytes(), 1)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
			return data
		}},
		{"sharer without the line", "lacks it", func(t *testing.T) []byte {
			mc := coherent(t)
			mc.sim.dir.AddSharer(3, 0)
			return snapshot(t, mc)
		}},
		{"dirty owner holding the line clean", "holds it clean", func(t *testing.T) []byte {
			mc := coherent(t)
			mc.sim.procs[0].cache.Fill(3 * 4)
			mc.sim.dir.AddSharer(3, 0)
			mc.sim.dirtyOwner[3] = 0
			return snapshot(t, mc)
		}},
		{"dirty copy without ownership", "without ownership", func(t *testing.T) []byte {
			mc := coherent(t)
			mc.sim.procs[0].cache.SetDirty(1 * 4)
			return snapshot(t, mc)
		}},
		{"cached copy the directory lacks", "the directory lists", func(t *testing.T) []byte {
			mc := coherent(t)
			mc.sim.procs[0].cache.Fill(5 * 4)
			return snapshot(t, mc)
		}},
		{"dirty owner of a line the directory lacks", "does not list", func(t *testing.T) []byte {
			mc := coherent(t)
			mc.sim.procs[0].cache.Fill(4 * 4)
			mc.sim.procs[0].cache.SetDirty(4 * 4)
			mc.sim.dirtyOwner[4] = 0
			return snapshot(t, mc)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreMachine(tc.build(t), p, nil)
			if !errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrSnapshotMismatch mentioning %q", err, tc.want)
			}
		})
	}
}
