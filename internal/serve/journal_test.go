package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// base64CkptRecord frames a ckpt record as journals wrote them before
// the raw snapshot framing: the snapshot base64-encoded in the JSON as
// "snap", under the line's CRC.
func base64CkptRecord(seq uint64, id string, entry int, cycle int64, snap []byte) []byte {
	rec := fmt.Sprintf(`{"seq":%d,"kind":"ckpt","id":%q,"job":%d,"cycle":%d,"snap":%q}`,
		seq, id, entry, cycle, base64.StdEncoding.EncodeToString(snap))
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE([]byte(rec)), rec)
}

func openJournalT(t *testing.T, path string) (*Journal, []*ReplayedJob) {
	t.Helper()
	j, jobs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", path, err)
	}
	return j, jobs
}

func TestJournalReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, jobs := openJournalT(t, path)
	if len(jobs) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(jobs))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.AppendSubmit("b-1", "k1", "", json.RawMessage(`{"jobs":[]}`)))
	must(j.AppendCkpt("b-1", 0, 100, []byte{1, 2, 3}))
	must(j.AppendCkpt("b-1", 0, 200, []byte{4, 5, 6})) // supersedes the first
	must(j.AppendCkpt("b-1", 1, 150, []byte{7}))
	must(j.AppendSubmit("b-2", "k2", "", json.RawMessage(`{"jobs":[1]}`)))
	must(j.AppendDone("b-2", json.RawMessage(`{"ok":true}`), nil))
	must(j.Close())

	j2, jobs := openJournalT(t, path)
	defer j2.Close()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	unfinished, done := jobs[0], jobs[1]
	if unfinished.ID != "b-1" || done.ID != "b-2" {
		t.Fatalf("jobs out of submit order: %s, %s", jobs[0].ID, jobs[1].ID)
	}
	if unfinished.Key != "k1" || string(unfinished.Body) != `{"jobs":[]}` {
		t.Errorf("b-1 replayed wrong: key=%q body=%s", unfinished.Key, unfinished.Body)
	}
	if unfinished.Resp != nil {
		t.Error("unfinished job came back with a response")
	}
	if c := unfinished.Ckpts[0]; c.Cycle != 200 || !bytes.Equal(c.Snap, []byte{4, 5, 6}) {
		t.Errorf("entry 0 checkpoint = %+v, want the latest (cycle 200)", c)
	}
	if c := unfinished.Ckpts[1]; c.Cycle != 150 || !bytes.Equal(c.Snap, []byte{7}) {
		t.Errorf("entry 1 checkpoint = %+v", c)
	}
	if string(done.Resp) != `{"ok":true}` {
		t.Errorf("done response = %s", done.Resp)
	}
	if done.Ckpts != nil {
		t.Error("done job kept resume checkpoints")
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openJournalT(t, path)
	if err := j.AppendSubmit("b-1", "k1", "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("b-1", 0, 50, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a torn line; replay must drop it and
	// truncate back to the last whole record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00000000 {"seq":3,"kind":"done","id":"b-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, jobs := openJournalT(t, path)
	if len(jobs) != 1 || jobs[0].Resp != nil || jobs[0].Ckpts[0].Cycle != 50 {
		t.Fatalf("torn tail corrupted replay: %+v", jobs)
	}
	// The file is healed: the tail is gone and new appends parse.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Errorf("journal not truncated to the last valid record: %d bytes, want %d", len(after), len(clean))
	}
	if err := j2.AppendDone("b-1", json.RawMessage(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, jobs = openJournalT(t, path)
	if len(jobs) != 1 || jobs[0].Resp == nil {
		t.Fatalf("append after heal did not replay: %+v", jobs)
	}
}

func TestJournalStopsAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openJournalT(t, path)
	for _, id := range []string{"b-1", "b-2", "b-3"} {
		if err := j.AppendSubmit(id, id, "", json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Flip one payload byte of the middle record: it and everything
	// after it are dropped, because a log with a hole in the middle
	// cannot be trusted past the hole.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	lines[1][len(lines[1])-2] ^= 0xff
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, jobs := openJournalT(t, path)
	defer j2.Close()
	if len(jobs) != 1 || jobs[0].ID != "b-1" {
		t.Fatalf("replay past a corrupt record: got %d jobs", len(jobs))
	}
}

// TestJournalOwnershipReplay covers the cluster records: owner submits
// replay owned, replica submits do not, a lease promotes, a release
// demotes, and the latest ownership record wins.
func TestJournalOwnershipReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openJournalT(t, path)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// b-own: plain owner submit (the pre-cluster shape).
	must(j.AppendSubmit("b-own", "k1", "", json.RawMessage(`{}`)))
	// b-rep: replica held for a peer, never promoted.
	must(j.AppendReplicaSubmit("b-rep", "k2", "", json.RawMessage(`{}`)))
	must(j.AppendCkpt("b-rep", 0, 500, []byte{1}))
	// b-claim: replica promoted by a failover claim.
	must(j.AppendReplicaSubmit("b-claim", "k3", "", json.RawMessage(`{}`)))
	must(j.AppendLease("b-claim", "node1", 3*time.Second))
	// b-gone: owned, then handed off during a drain.
	must(j.AppendSubmit("b-gone", "k4", "", json.RawMessage(`{}`)))
	must(j.AppendLease("b-gone", "node1", 3*time.Second))
	must(j.AppendRelease("b-gone", "node1"))
	must(j.Close())

	j2, jobs := openJournalT(t, path)
	defer j2.Close()
	owned := map[string]bool{}
	for _, rj := range jobs {
		owned[rj.ID] = rj.Owned
	}
	want := map[string]bool{"b-own": true, "b-rep": false, "b-claim": true, "b-gone": false}
	for id, w := range want {
		got, ok := owned[id]
		if !ok {
			t.Errorf("job %s missing from replay", id)
			continue
		}
		if got != w {
			t.Errorf("job %s: Owned = %v, want %v", id, got, w)
		}
	}
	// The replica's checkpoint survives for state transfer.
	for _, rj := range jobs {
		if rj.ID == "b-rep" && rj.Ckpts[0].Cycle != 500 {
			t.Errorf("replica checkpoint lost: %+v", rj.Ckpts)
		}
	}
}

func TestJobIDStable(t *testing.T) {
	a, b := JobID("paper-table-3"), JobID("paper-table-3")
	if a != b {
		t.Errorf("JobID not stable: %s vs %s", a, b)
	}
	if a == JobID("paper-table-4") {
		t.Error("distinct keys collided")
	}
	if len(a) != 18 || a[:2] != "b-" {
		t.Errorf("unexpected id shape: %s", a)
	}
}

// TestJournalRawSnapshotBytes: a checkpoint's snapshot travels raw
// after its record's JSON line, so snapshot bytes that look like
// framing — newlines, a CRC-shaped prefix — must come back exactly, and
// the record after it must still parse.
func TestJournalRawSnapshotBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openJournalT(t, path)
	snap := []byte("00000000 {\"kind\":\"done\"}\n\n\x00\xff\n")
	for _, err := range []error{
		j.AppendSubmit("b-1", "k1", "", json.RawMessage(`{}`)),
		j.AppendCkpt("b-1", 0, 100, snap),
		j.AppendCkpt("b-1", 1, 40, []byte{'\n'}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"snap":`)) {
		t.Error("snapshot went into the JSON instead of after it")
	}
	_, jobs := openJournalT(t, path)
	if len(jobs) != 1 || !bytes.Equal(jobs[0].Ckpts[0].Snap, snap) || !bytes.Equal(jobs[0].Ckpts[1].Snap, []byte{'\n'}) {
		t.Fatalf("raw snapshots did not round-trip: %+v", jobs)
	}
}

// TestJournalTruncatesTornRawSnapshot: a crash in the middle of a raw
// snapshot leaves a whole JSON line whose snapshot is short. Replay
// must drop that record and truncate the file back to the record
// before it.
func TestJournalTruncatesTornRawSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openJournalT(t, path)
	if err := j.AppendSubmit("b-1", "k1", "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("b-1", 0, 50, bytes.Repeat([]byte{7}, 300)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, _ = openJournalT(t, path)
	if err := j.AppendCkpt("b-1", 0, 90, bytes.Repeat([]byte{8}, 300)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the second checkpoint 100 bytes into its snapshot.
	line := bytes.IndexByte(full[len(clean):], '\n')
	if err := os.WriteFile(path, full[:len(clean)+line+1+100], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, jobs := openJournalT(t, path)
	defer j2.Close()
	if len(jobs) != 1 || jobs[0].Ckpts[0].Cycle != 50 || len(jobs[0].Events) != 1 {
		t.Fatalf("torn snapshot survived replay: %+v", jobs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Errorf("journal not truncated to the last whole record: %d bytes, want %d", len(after), len(clean))
	}
}

// FuzzJournalReplay feeds arbitrary and torn bytes to journal replay.
// Replay must not panic, must keep exactly a prefix of the file (it
// stops at the first bad record and truncates there), and the healed
// journal must take appends: reopened, it replays the same jobs plus
// the appended one, with nothing else cut.
func FuzzJournalReplay(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed")
	j, _, err := OpenJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, err := range []error{
		j.AppendSubmit("b-1", "k1", "acme", json.RawMessage(`{"jobs":[]}`)),
		j.AppendCkpt("b-1", 0, 100, []byte("snap\nbytes")),
		j.AppendCkpt("b-1", 0, 200, nil),
		j.AppendReplicaSubmit("b-2", "k2", "", json.RawMessage(`{}`)),
		j.AppendLease("b-2", "n1", time.Second),
		j.AppendRelease("b-2", "n1"),
		j.AppendDone("b-1", []byte(`{"ok":true}`), &TenantUsage{Tenant: "acme", Jobs: 1}),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	legacy := append(bytes.Clone(data), base64CkptRecord(8, "b-2", 0, 100, []byte("snap\nbytes"))...)
	f.Add(data)
	f.Add(data[:len(data)-7])
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, jobs, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("replay kept %d bytes that are not a prefix of the input", len(kept))
		}
		const id = "b-fuzz-append"
		known := false
		for _, rj := range jobs {
			known = known || rj.ID == id
		}
		if err := j.AppendSubmit(id, "fuzz", "", json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCkpt(id, 0, 7, []byte("raw\nsnap")); err != nil {
			t.Fatal(err)
		}
		j.Close()
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		j2, again, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, written) {
			t.Fatalf("reopening cut the healed journal from %d to %d bytes", len(written), len(after))
		}
		if known {
			return
		}
		if len(again) != len(jobs)+1 || again[len(jobs)].ID != id {
			t.Fatalf("reopened journal replays %d jobs, want the %d before plus the appended one", len(again), len(jobs))
		}
		for i, rj := range jobs {
			if !reflect.DeepEqual(rj, again[i]) {
				t.Fatalf("job %s replays differently after an append:\n%+v\n%+v", rj.ID, rj, again[i])
			}
		}
	})
}
