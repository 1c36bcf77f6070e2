package apps_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/cache"
	"mtsim/internal/machine"
	"mtsim/internal/net"
	"mtsim/internal/prog"
	"mtsim/internal/snap"
)

// seedConfigs are FuzzRestoreMachine's five seed configurations of
// water, each paused at cycle 20,000. Their snapshots are committed as
// snapshot_v4_<name>.bin, written by the format-4 encoder, and
// snapshot_v5_<name>.bin, written by the current one. Together they
// hold every optional section: metrics and run lengths; a 64-line cache
// with 98 directory lines and 2 dirty owners; mesh links with messages
// in flight; a grouping window, fault plan and critical-region
// priority; the congestion model.
var seedConfigs = []struct {
	name string
	cfg  machine.Config
}{
	{"metrics", machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse, CollectMetrics: true, CollectRunLengths: true}},
	{"cache", machine.Config{Procs: 2, Threads: 3, Model: machine.ConditionalSwitch, Cache: cache.Config{Lines: 64, LineCells: 4, Assoc: 2}}},
	{"mesh", machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnLoad, Topology: net.TopologyConfig{Kind: net.TopoMesh}}},
	{"faults", machine.Config{Procs: 2, Threads: 2, Model: machine.ExplicitSwitch, GroupWindow: true, CritPriority: true,
		Faults: net.FaultConfig{Enabled: true, Seed: 7, DropRate: 0.05, DelayRate: 0.05}}},
	{"congestion", machine.Config{Procs: 3, Threads: 2, Model: machine.SwitchOnLoad, Congestion: net.CongestionConfig{Enabled: true}}},
}

// seedFixture names the committed snapshot of seed configuration name
// in format version.
func seedFixture(version int, name string) string {
	return fmt.Sprintf("snapshot_v%d_%s.bin", version, name)
}

// TestSnapshotV4FixturesByteIdentity: each committed format-4 snapshot
// restores, re-encodes to exactly the bytes of the format-5 snapshot of
// the same machine (format 5 drops only state that no run depends on),
// and runs on to the uninterrupted Result.
func TestSnapshotV4FixturesByteIdentity(t *testing.T) { checkSeedFixtures(t, 4) }

// TestSnapshotV5FixturesByteIdentity pins the current format's bytes:
// each committed format-5 snapshot restores, re-encodes to exactly the
// bytes it was read from, and runs on to the uninterrupted Result.
func TestSnapshotV5FixturesByteIdentity(t *testing.T) {
	checkSeedFixtures(t, machine.SnapshotVersion)
}

// checkSeedFixtures restores the committed format-version snapshot of
// each seed configuration, requires it to re-encode to the current
// format's fixture of the same machine, and runs it on to the
// uninterrupted Result.
func checkSeedFixtures(t *testing.T, version int) {
	a := apps.MustNew("water", app.Quick)
	for _, sc := range seedConfigs {
		file := seedFixture(version, sc.name)
		t.Run(file, func(t *testing.T) {
			data := readFixture(t, file, version)
			p, err := a.ProgramFor(sc.cfg.Model)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := machine.RestoreMachine(data, p, a.Init)
			if err != nil {
				t.Fatalf("RestoreMachine: %v", err)
			}
			out, err := mc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			current := seedFixture(machine.SnapshotVersion, sc.name)
			if want := readFixture(t, current, machine.SnapshotVersion); !bytes.Equal(out, want) {
				t.Fatalf("re-encodes to %d bytes, not the %d of %s", len(out), len(want), current)
			}
			checkResumes(t, a, p, mc)
		})
	}
}

// TestSnapshotRestoreWindow: restore reads formats 4 and 5 only. A
// format-5 snapshot relabelled as any other format, older or newer, and
// resealed so its checksum holds, is a mismatch: the caller restarts
// its run instead of misdecoding the payload.
func TestSnapshotRestoreWindow(t *testing.T) {
	a := apps.MustNew("water", app.Quick)
	sc := seedConfigs[0]
	p, err := a.ProgramFor(sc.cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	data := readFixture(t, seedFixture(machine.SnapshotVersion, sc.name), machine.SnapshotVersion)
	for _, version := range []uint32{0, 1, 3, machine.SnapshotVersion + 1} {
		if _, err := machine.RestoreMachine(relabelled(data, version), p, a.Init); !errors.Is(err, machine.ErrSnapshotMismatch) {
			t.Errorf("format-5 snapshot relabelled as format %d: err = %v, want ErrSnapshotMismatch", version, err)
		}
	}
}

// TestSnapshotV4RejectsStateFormat5Drops: a format-4 snapshot restores
// only if what format 5 no longer encodes is what an encoder could have
// written. Each of the nine dropped fault fields, set to anything but
// what the latency implies, is a mismatch; so is a link whose message
// counters do not balance against its in-flight list.
func TestSnapshotV4RejectsStateFormat5Drops(t *testing.T) {
	a := apps.MustNew("water", app.Quick)
	restore := func(data []byte, model machine.Model) error {
		p, err := a.ProgramFor(model)
		if err != nil {
			t.Fatal(err)
		}
		_, err = machine.RestoreMachine(resealed(data), p, a.Init)
		return err
	}

	// The faults fixture's fault configuration as format 4 encoded it:
	// seed 7; the constant distribution (0), no spread, no hot rate, a
	// hot factor of 4; drop 0.05, dup 0, delay 0.05; then the protocol
	// for latency 200: delay 200, timeout 800, 8 retries, backoff 100 to
	// 1600.
	var e snap.Encoder
	e.U64(7)
	for _, v := range []int64{0, 0, 0, 4} {
		e.I64(v)
	}
	e.F64(0.05)
	e.F64(0)
	e.F64(0.05)
	for _, v := range []int64{200, 800, 8, 100, 1600} {
		e.I64(v)
	}
	faults := readFixture(t, seedFixture(4, "faults"), 4)
	at := bytes.Index(faults, e.Bytes())
	if at < 0 || bytes.LastIndex(faults, e.Bytes()) != at {
		t.Fatal("faults fixture does not hold its fault configuration exactly once")
	}
	for _, field := range []int{1, 2, 3, 4, 8, 9, 10, 11, 12} {
		data := bytes.Clone(faults)
		off := at + 8*field
		binary.LittleEndian.PutUint64(data[off:], binary.LittleEndian.Uint64(data[off:])+1)
		if err := restore(data, machine.ExplicitSwitch); !errors.Is(err, machine.ErrSnapshotMismatch) {
			t.Errorf("fault field %d changed: err = %v, want ErrSnapshotMismatch", field, err)
		}
	}

	mesh := readFixture(t, seedFixture(4, "mesh"), 4)
	off := v4FirstLinkCounters(t, mesh, 16)
	if err := restore(mesh, machine.SwitchOnLoad); err != nil {
		t.Fatalf("resealed mesh fixture: %v", err)
	}
	binary.LittleEndian.PutUint64(mesh[off:], binary.LittleEndian.Uint64(mesh[off:])+1)
	if err := restore(mesh, machine.SwitchOnLoad); !errors.Is(err, machine.ErrSnapshotMismatch) {
		t.Errorf("unbalanced link counters: err = %v, want ErrSnapshotMismatch", err)
	}
}

// v4FirstLinkCounters returns the offset of the first link's enqueued
// counter in a format-4 snapshot of a routed machine with the given
// link count. The topology section ends the payload, so it starts at
// the one offset from which a present flag, the link count, and that
// many links — each a busy-until cycle, two counters and a list of
// departure times — run to exactly the network's three final counters.
func v4FirstLinkCounters(t *testing.T, data []byte, links int) int {
	t.Helper()
	end := len(data) - 4 - 3*8
	for at := 8; at+5 <= end; at++ {
		if data[at] != 1 || binary.LittleEndian.Uint32(data[at+1:]) != uint32(links) {
			continue
		}
		p, i := at+5, 0
		for ; i < links && p+28 <= end; i++ {
			p += 28 + 8*int(binary.LittleEndian.Uint32(data[p+24:]))
		}
		if i == links && p == end {
			return at + 5 + 8
		}
	}
	t.Fatal("no format-4 topology section found")
	return 0
}

// TestCacheRunsRestoreAtEveryPause: restore's coherence check accepts
// every state a run reaches. Every application runs under each cache
// model, snapshotted and restored at pauses spread over the whole run;
// each snapshot must restore and re-encode to itself.
func TestCacheRunsRestoreAtEveryPause(t *testing.T) {
	for _, name := range apps.AllNames() {
		a := apps.MustNew(name, app.Quick)
		for _, model := range []machine.Model{machine.SwitchOnMiss, machine.SwitchOnUseMiss, machine.ConditionalSwitch} {
			cfg := machine.Config{Procs: 4, Threads: 2, Model: model}
			p, err := a.ProgramFor(model)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := machine.NewMachine(cfg, p, a.Init)
			if err != nil {
				t.Fatal(err)
			}
			for step := int64(1); ; step++ {
				done, err := mc.RunUntil(context.Background(), mc.Cycle()+1000*step)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				data, err := mc.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				cycle := mc.Cycle()
				if mc, err = machine.RestoreMachine(data, p, a.Init); err != nil {
					t.Fatalf("%s under %s at cycle %d: %v", name, model, cycle, err)
				}
				if out, err := mc.Snapshot(); err != nil || !bytes.Equal(out, data) {
					t.Fatalf("%s under %s at cycle %d: restored snapshot re-encodes differently (err %v)", name, model, cycle, err)
				}
			}
		}
	}
}

// readFixture reads a committed snapshot and checks its format version.
func readFixture(t testing.TB, file string, version int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != uint32(version) {
		t.Fatalf("%s is format %d, want %d", file, v, version)
	}
	return data
}

// checkResumes runs the restored mc, paused mid-run, to completion and
// compares its Result with an uninterrupted run of the configuration
// it carries.
func checkResumes(t *testing.T, a *app.App, p *prog.Program, mc *machine.Machine) {
	t.Helper()
	if mc.Cycle() == 0 {
		t.Fatal("fixture restored at cycle 0; it should be paused mid-run")
	}
	want, err := machine.RunChecked(mc.Config(), p, a.Init.Fill, a.Check)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(mc.SharedMem()); err != nil {
		t.Fatalf("restored run computed a wrong result: %v", err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Errorf("resumed result differs\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", wj, gj)
	}
}

// TestSnapshotRejectsOtherImage: a snapshot's shared memory is a delta
// against its application's image, so restoring it against any other
// image — another application's, the all-zero nil image, or one of the
// right size but different contents — is a mismatch, never a silently
// wrong machine.
func TestSnapshotRejectsOtherImage(t *testing.T) {
	a := apps.MustNew("water", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse}
	data := pausedSnapshot(t, a, cfg, 5000)
	if _, err := machine.RestoreMachine(data, a.Raw, a.Init); err != nil {
		t.Fatalf("restore with the right image: %v", err)
	}
	others := map[string]*machine.Image{
		"other app": apps.MustNew("sor", app.Quick).Init,
		"nil":       nil,
		"zeroed":    machine.NewImage(a.Raw, nil),
	}
	for name, img := range others {
		if _, err := machine.RestoreMachine(data, a.Raw, img); !errors.Is(err, machine.ErrSnapshotMismatch) {
			t.Errorf("%s image: err = %v, want ErrSnapshotMismatch", name, err)
		}
	}
}

// TestSnapshotDeltaIsSmall: the delta encoding stores only the words
// that differ from the image, so a machine paused right after start
// snapshots to far less than its shared memory.
func TestSnapshotDeltaIsSmall(t *testing.T) {
	a := apps.MustNew("sieve", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnUse}
	data := pausedSnapshot(t, a, cfg, 100)
	if shared := 8 * int(a.Raw.Shared.Size()); len(data) >= shared/4 {
		t.Errorf("snapshot at cycle 100 is %d bytes; shared memory alone is %d", len(data), shared)
	}
}

// pausedSnapshot runs a's program for cfg to cycle pause and snapshots.
func pausedSnapshot(t testing.TB, a *app.App, cfg machine.Config, pause int64) []byte {
	t.Helper()
	p, err := a.ProgramFor(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := machine.NewMachine(cfg, p, a.Init)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := mc.RunUntil(context.Background(), pause); err != nil || done {
		t.Fatalf("run to cycle %d: done=%v err=%v", pause, done, err)
	}
	data, err := mc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzRestoreMachine feeds hostile bytes to the snapshot decoder. Each
// input is tried as is and with its checksum recomputed, so mutations
// reach the payload decoder instead of stopping at the frame. Restore
// must not panic, must not allocate beyond a bound proportional to the
// input (a snapshot's configuration sizes the machine, so a corrupt one
// must not buy a huge machine with a small input), and any snapshot it
// accepts must re-encode canonically: to the input itself for the
// current format, to a fixed point for format 4.
func FuzzRestoreMachine(f *testing.F) {
	a := apps.MustNew("water", app.Quick)
	grouped, _ := a.MustGrouped()
	progs := []*prog.Program{a.Raw, grouped}
	for _, sc := range seedConfigs {
		f.Add(pausedSnapshot(f, a, sc.cfg, 20000))
	}
	for _, sc := range seedConfigs {
		f.Add(readFixture(f, seedFixture(4, sc.name), 4))
	}
	// Formats outside the restore window, one older and one newer.
	current := readFixture(f, seedFixture(machine.SnapshotVersion, seedConfigs[0].name), machine.SnapshotVersion)
	for _, version := range []uint32{3, machine.SnapshotVersion + 1} {
		f.Add(relabelled(current, version))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			for _, p := range progs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				mc, err := machine.RestoreMachine(in, p, a.Init)
				runtime.ReadMemStats(&after)
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20+64*uint64(len(in)) {
					t.Fatalf("restoring %d bytes allocated %d", len(in), alloc)
				}
				if err != nil {
					continue
				}
				out, err := mc.Snapshot()
				if err != nil {
					t.Fatalf("re-snapshot of an accepted snapshot: %v", err)
				}
				if binary.LittleEndian.Uint32(in[4:8]) == machine.SnapshotVersion {
					if !bytes.Equal(out, in) {
						t.Fatalf("accepted snapshot of %d bytes re-encodes to %d different bytes", len(in), len(out))
					}
					continue
				}
				again, err := machine.RestoreMachine(out, p, a.Init)
				if err != nil {
					t.Fatalf("re-encoded format-4 snapshot does not restore: %v", err)
				}
				if out2, err := again.Snapshot(); err != nil || !bytes.Equal(out2, out) {
					t.Fatalf("re-encoded format-4 snapshot is not a fixed point (err=%v)", err)
				}
			}
		}
	})
}

// relabelled returns a snapshot marked as format version and resealed.
func relabelled(data []byte, version uint32) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[4:8], version)
	return resealed(out)
}

// resealed returns data with its trailing checksum recomputed over the
// rest, or data itself when it is too short to carry a frame.
func resealed(data []byte) []byte {
	if len(data) < 16 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}
