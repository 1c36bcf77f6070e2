//go:build unix

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// withFileSizeLimit runs f with the process's file size limit lowered to
// limit bytes, which is how these tests fill a disk: a write that would
// take a file past the limit fails (EFBIG; the Go runtime ignores the
// SIGXFSZ it raises), and one that straddles it is cut short, as a
// write to a full disk can be. The limit binds every file the process
// writes, so a test that calls it must not run in parallel.
func withFileSizeLimit(t *testing.T, limit int64, f func() error) error {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("read the file size limit: %v", err)
	}
	lowered := old
	lowered.Cur = uint64(limit)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("lower the file size limit: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restore the file size limit: %v", err)
		}
	}()
	return f()
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalFailedAppendLeavesNoTornRecord: an append the disk cuts
// short fails and takes its bytes back off the journal, so the records
// appended after it, once there is room again, still replay: replay
// stops at the first torn record and would drop every one behind it.
func TestJournalFailedAppendLeavesNoTornRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	appendT(t, j, journalRecord{Kind: recSubmit, ID: "b-1", Key: "k1", Body: []byte(`{}`)})
	size := fileSize(t, path)
	big := journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 100, Snap: bytes.Repeat([]byte{7}, 64<<10)}
	if err := withFileSizeLimit(t, size+1024, func() error { return j.append(big) }); err == nil {
		t.Fatal("an append past the file size limit succeeded")
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("the failed append left %d bytes on the journal", got-size)
	}
	appendT(t, j, journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 200, Snap: []byte{1}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if v := viewIn(t, replayT(t, path), "b-1"); v.Checkpoint != 1 || v.Ckpts[0].Cycle != 200 {
		t.Errorf("the append after a failed one did not replay: %+v", v)
	}
}

// TestAdoptionFailingPartwayOwnsNothing: a journal that fails partway
// through an adoption leaves the job a replica on this node, neither
// owned nor queued, so the claim's retry or the next peer a drain
// offers it to can take it over without two nodes running it. Here the
// disk fills after the job's submit went in, on its snapshot record.
// The retry, with room again, adopts the job and runs it to the sync
// run's bytes, and the journal replays to the live jobs at each step.
func TestAdoptionFailingPartwayOwnsNothing(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", sieveBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}
	ckpt := sieveCheckpoint(t, 2, 1)
	path := filepath.Join(t.TempDir(), "wal")
	s, ts := newJournalServer(t, Config{CheckpointEvery: 200_000}, path)
	const key = "adopted-partway"
	id := JobID(key)
	st := &JobState{
		Schema: ResponseSchemaVersion, ID: id, Key: key, Holder: "gone",
		Body: json.RawMessage(sieveBatchBody), Status: JobRunning, Progress: ckpt.Cycle,
		Ckpts: []JobStateCkpt{{Entry: 0, Cycle: ckpt.Cycle, Snap: ckpt.Snap}},
	}
	// Room for the submit record, not for the snapshot.
	limit := fileSize(t, path) + int64(len(ckpt.Snap))/2
	if err := withFileSizeLimit(t, limit, func() error { return s.jm.adoptOwned(st) }); err == nil {
		t.Fatal("adoption over a full disk succeeded")
	}
	job := s.jm.get(id)
	if job == nil {
		t.Fatal("the submit that went in before the disk filled was not applied")
	}
	if v := viewOf(job); v.Status != JobReplica || !v.Replica || s.jm.owns(id) || len(s.jm.leaseTable()) != 0 {
		t.Fatalf("a failed adoption left the job %s (replica %v), owned %v, leases %v; want a replica no one here owns",
			v.Status, v.Replica, s.jm.owns(id), s.jm.leaseTable())
	}
	requireRestartEquivalent(t, s)

	if err := s.jm.adoptOwned(st); err != nil {
		t.Fatal(err)
	}
	if got := pollJob(t, ts, id); !bytes.Equal(got, ref) {
		t.Errorf("adopted job's response differs from the sync run\ngot:  %s\nwant: %s", got, ref)
	}
	requireRestartEquivalent(t, s)
}
