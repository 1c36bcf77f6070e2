package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// framedRecord frames a record's JSON as a journal line, under its CRC.
func framedRecord(rec string) []byte {
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE([]byte(rec)), rec)
}

// base64CkptRecord frames a ckpt record as journals wrote them before
// the raw snapshot framing: the snapshot base64-encoded in the JSON as
// "snap".
func base64CkptRecord(seq uint64, id string, entry int, cycle int64, snap []byte) []byte {
	return framedRecord(fmt.Sprintf(`{"seq":%d,"kind":"ckpt","id":%q,"job":%d,"cycle":%d,"snap":%q}`,
		seq, id, entry, cycle, base64.StdEncoding.EncodeToString(snap)))
}

// ttlLeaseRecord frames a lease record as journals wrote them while an
// owner journaled a lease at each run start and renewal: with the
// lease's validity window as "ttl_ms", which replay does not read.
func ttlLeaseRecord(seq uint64, id, node string, ttlMS int64) []byte {
	return framedRecord(fmt.Sprintf(`{"seq":%d,"kind":"lease","id":%q,"node":%q,"ttl_ms":%d}`, seq, id, node, ttlMS))
}

// openJournalT opens the journal at path for a test to write records
// to.
func openJournalT(t *testing.T, path string) *Journal {
	t.Helper()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", path, err)
	}
	return j
}

// appendT appends recs to j in order.
func appendT(t *testing.T, j *Journal, recs ...journalRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// replayT folds the journal at path into a fresh job table, as a
// restart does, without starting dispatchers. The journal stays open
// for appends until the test ends.
func replayT(t *testing.T, path string) *jobManager {
	t.Helper()
	jm, err := New(Config{}).replayJournal(path)
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	t.Cleanup(func() { jm.journal.Close() })
	return jm
}

// jobView is what a job's journal records determine, in comparable
// form.
type jobView struct {
	Key, Tenant, Status, Body, Resp string
	Replica                         bool
	Checkpoint, Progress            int64
	Events                          []JobEvent
	Ckpts                           map[int]JobCheckpoint
}

func viewOf(job *asyncJob) jobView {
	job.mu.Lock()
	defer job.mu.Unlock()
	return jobView{
		Key: job.key, Tenant: job.tenant, Status: job.status, Body: string(job.body), Resp: string(job.resp),
		Replica: job.replica, Checkpoint: job.checkpointsLocked(), Progress: job.progressLocked(),
		Events: slices.Clone(job.events), Ckpts: maps.Clone(job.ckpts),
	}
}

// viewIn returns the view of job id in jm's table, failing the test
// when the table holds no such job.
func viewIn(t *testing.T, jm *jobManager, id string) jobView {
	t.Helper()
	job := jm.jobs[id]
	if job == nil {
		t.Fatalf("job %s missing from the table", id)
	}
	return viewOf(job)
}

// viewsOf returns the view of every job in jm's table. Called with
// jm.mu held, or on a table no dispatcher or handler shares.
func viewsOf(jm *jobManager) map[string]jobView {
	views := make(map[string]jobView, len(jm.jobs))
	for id, job := range jm.jobs {
		views[id] = viewOf(job)
	}
	return views
}

// requireRestartEquivalent reopens s's journal into a fresh job table,
// as a restart would, and requires every job to come back as s holds it
// live: status, checkpoint count, progress, events, each entry's
// checkpoint and the result bytes. Call it once the test's jobs have
// finished or settled as replicas.
func requireRestartEquivalent(t *testing.T, s *Server) {
	t.Helper()
	// Every append to a finished job or a replica happens under jm.mu,
	// so the copy and the live views are one cut of the journal.
	s.jm.mu.Lock()
	data, err := os.ReadFile(s.jm.journal.f.Name())
	live := viewsOf(s.jm)
	s.jm.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reopened.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(s.cfg).replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.journal.Close()
	reopened := viewsOf(fresh)
	for id, want := range live {
		if want.Status != JobDone && want.Status != JobReplica {
			t.Fatalf("job %s is %s: compare a restart once it is done or a replica", id, want.Status)
		}
		if got, ok := reopened[id]; !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("job %s replays differently from its live state:\n--- live ---\n%+v\n--- replayed ---\n%+v", id, want, got)
		}
	}
	if len(reopened) != len(live) {
		t.Errorf("journal replays %d jobs, the live table holds %d", len(reopened), len(live))
	}
}

func TestJournalReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if jm := replayT(t, path); len(jm.jobs) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(jm.jobs))
	}
	j := openJournalT(t, path)
	appendT(t, j,
		journalRecord{Kind: recSubmit, ID: "b-1", Key: "k1", Body: []byte(`{"jobs":[]}`)},
		journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 100, Snap: []byte{1, 2, 3}},
		journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 200, Snap: []byte{4, 5, 6}}, // supersedes the first
		journalRecord{Kind: recCkpt, ID: "b-1", Job: 1, Cycle: 150, Snap: []byte{7}},
		journalRecord{Kind: recSubmit, ID: "b-2", Key: "k2", Body: []byte(`{"jobs":[1]}`)},
		journalRecord{Kind: recCkpt, ID: "b-2", Gen: 1, Cycle: 300, Snap: []byte{8}},
		journalRecord{Kind: recDone, ID: "b-2", Resp: []byte(`{"ok":true}`)},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	jm := replayT(t, path)
	if len(jm.jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jm.jobs))
	}
	unfinished, done := viewIn(t, jm, "b-1"), viewIn(t, jm, "b-2")
	if unfinished.Key != "k1" || unfinished.Body != `{"jobs":[]}` || unfinished.Status != JobQueued {
		t.Errorf("b-1 replayed wrong: %+v", unfinished)
	}
	if unfinished.Resp != "" {
		t.Error("unfinished job came back with a response")
	}
	if c := unfinished.Ckpts[0]; c.Cycle != 200 || !bytes.Equal(c.Snap, []byte{4, 5, 6}) {
		t.Errorf("entry 0 checkpoint = %+v, want the latest (cycle 200)", c)
	}
	if c := unfinished.Ckpts[1]; c.Cycle != 150 || !bytes.Equal(c.Snap, []byte{7}) {
		t.Errorf("entry 1 checkpoint = %+v", c)
	}
	if done.Resp != `{"ok":true}` || done.Status != JobDone {
		t.Errorf("done job = %+v", done)
	}
	// Replay queued both at their submits; the done one left its queue.
	if q := jm.queues[DefaultTenant]; len(q.jobs) != 1 || q.jobs[0].id != "b-1" {
		t.Errorf("queue after replay holds %d jobs, want only the unfinished b-1", len(q.jobs))
	}
	// A finished job keeps its entries' generation and cycle, its
	// progress, but no snapshot bytes.
	if c := done.Ckpts[0]; c.Gen != 1 || c.Cycle != 300 || c.Snap != nil || done.Progress != 300 {
		t.Errorf("done job kept checkpoint %+v and progress %d, want generation 1 at cycle 300 without a snapshot", c, done.Progress)
	}
}

func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	appendT(t, j,
		journalRecord{Kind: recSubmit, ID: "b-1", Key: "k1", Body: []byte(`{}`)},
		journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 50, Snap: []byte{9}},
	)
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

	jm := replayT(t, path)
	if v := viewIn(t, jm, "b-1"); len(jm.jobs) != 1 || v.Status != JobQueued || v.Ckpts[0].Cycle != 50 {
		t.Fatalf("torn tail corrupted replay: %d jobs, b-1 %+v", len(jm.jobs), v)
	}
	// The file is healed: the tail is gone and new appends parse.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Errorf("journal not truncated to the last valid record: %d bytes, want %d", len(after), len(clean))
	}
	appendT(t, jm.journal, journalRecord{Kind: recDone, ID: "b-1", Resp: []byte(`{}`)})
	jm.journal.Close()
	if jm := replayT(t, path); len(jm.jobs) != 1 || viewIn(t, jm, "b-1").Status != JobDone {
		t.Fatalf("append after heal did not replay: %d jobs", len(jm.jobs))
	}
}

func TestJournalStopsAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	for _, id := range []string{"b-1", "b-2", "b-3"} {
		appendT(t, j, journalRecord{Kind: recSubmit, ID: id, Key: id, Body: []byte(`{}`)})
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

	if jm := replayT(t, path); len(jm.jobs) != 1 || jm.jobs["b-1"] == nil {
		t.Fatalf("replay past a corrupt record: got %d jobs", len(jm.jobs))
	}
}

// TestJournalOwnershipReplay covers the cluster records: owner submits
// replay owned, replica submits do not, a lease promotes, a release
// demotes, and the latest ownership record wins. A lease record that
// carries the "ttl_ms" older journals wrote still promotes.
func TestJournalOwnershipReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	appendT(t, j,
		// b-own: plain owner submit (the pre-cluster shape).
		journalRecord{Kind: recSubmit, ID: "b-own", Key: "k1", Body: []byte(`{}`)},
		// b-rep: replica held for a peer, never promoted.
		journalRecord{Kind: recSubmit, ID: "b-rep", Key: "k2", Body: []byte(`{}`), Role: roleReplica},
		journalRecord{Kind: recCkpt, ID: "b-rep", Cycle: 500, Snap: []byte{1}},
		// b-claim: replica promoted by a failover claim.
		journalRecord{Kind: recSubmit, ID: "b-claim", Key: "k3", Body: []byte(`{}`), Role: roleReplica},
		journalRecord{Kind: recLease, ID: "b-claim", Node: "node1"},
		// b-gone: owned, leased at run start, then handed off during a
		// drain.
		journalRecord{Kind: recSubmit, ID: "b-gone", Key: "k4", Body: []byte(`{}`)},
		journalRecord{Kind: recLease, ID: "b-gone", Node: "node1"},
		journalRecord{Kind: recRelease, ID: "b-gone", Node: "node1"},
		// b-back: handed off during a drain, then handed back.
		journalRecord{Kind: recSubmit, ID: "b-back", Key: "k5", Body: []byte(`{}`)},
		journalRecord{Kind: recRelease, ID: "b-back", Node: "node1"},
		journalRecord{Kind: recLease, ID: "b-back", Node: "node1"},
		// b-ttl: replica promoted by a lease with "ttl_ms" (below).
		journalRecord{Kind: recSubmit, ID: "b-ttl", Key: "k6", Body: []byte(`{}`), Role: roleReplica},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ttlLeaseRecord(13, "b-ttl", "node1", 3000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	jm := replayT(t, path)
	for id, want := range map[string]string{
		"b-own": JobQueued, "b-rep": JobReplica, "b-claim": JobQueued, "b-gone": JobReplica,
		"b-back": JobQueued, "b-ttl": JobQueued,
	} {
		if v := viewIn(t, jm, id); v.Status != want || v.Replica != (want == JobReplica) {
			t.Errorf("job %s: status %s, replica %v; want %s", id, v.Status, v.Replica, want)
		}
	}
	// The replica's checkpoint survives for state transfer.
	if c := viewIn(t, jm, "b-rep").Ckpts[0]; c.Cycle != 500 {
		t.Errorf("replica checkpoint lost: %+v", c)
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
	j := openJournalT(t, path)
	snap := []byte("00000000 {\"kind\":\"done\"}\n\n\x00\xff\n")
	appendT(t, j,
		journalRecord{Kind: recSubmit, ID: "b-1", Key: "k1", Body: []byte(`{}`)},
		journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 100, Snap: snap},
		journalRecord{Kind: recCkpt, ID: "b-1", Job: 1, Cycle: 40, Snap: []byte{'\n'}},
	)
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"snap":`)) {
		t.Error("snapshot went into the JSON instead of after it")
	}
	jm := replayT(t, path)
	if v := viewIn(t, jm, "b-1"); len(jm.jobs) != 1 || !bytes.Equal(v.Ckpts[0].Snap, snap) || !bytes.Equal(v.Ckpts[1].Snap, []byte{'\n'}) {
		t.Fatalf("raw snapshots did not round-trip: %+v", v)
	}
}

// TestJournalTruncatesTornRawSnapshot: a crash in the middle of a raw
// snapshot leaves a whole JSON line whose snapshot is short. Replay
// must drop that record and truncate the file back to the record
// before it.
func TestJournalTruncatesTornRawSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	appendT(t, j,
		journalRecord{Kind: recSubmit, ID: "b-1", Key: "k1", Body: []byte(`{}`)},
		journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 50, Snap: bytes.Repeat([]byte{7}, 300)},
	)
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j = openJournalT(t, path)
	appendT(t, j, journalRecord{Kind: recCkpt, ID: "b-1", Cycle: 90, Snap: bytes.Repeat([]byte{8}, 300)})
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
	jm := replayT(t, path)
	if v := viewIn(t, jm, "b-1"); len(jm.jobs) != 1 || v.Ckpts[0].Cycle != 50 || len(v.Events) != 1 {
		t.Fatalf("torn snapshot survived replay: %+v", v)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Errorf("journal not truncated to the last whole record: %d bytes, want %d", len(after), len(clean))
	}
}

// FuzzJournalReplay feeds arbitrary and torn bytes to journal replay
// and its fold into the job table. Replay must not panic, must keep
// exactly a prefix of the file (it stops at the first bad record and
// truncates there), and the healed journal must take appends: reopened,
// it folds into the same jobs plus the appended one, with nothing else
// cut.
func FuzzJournalReplay(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed")
	j, _, err := OpenJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Kind: recSubmit, ID: "b-1", Key: "k1", Tenant: "acme", Body: []byte(`{"jobs":[]}`)},
		{Kind: recCkpt, ID: "b-1", Cycle: 100, Snap: []byte("snap\nbytes")},
		{Kind: recCkpt, ID: "b-1", Cycle: 200},
		{Kind: recSubmit, ID: "b-2", Key: "k2", Body: []byte(`{}`), Role: roleReplica},
		{Kind: recLease, ID: "b-2", Node: "n1"},
		{Kind: recRelease, ID: "b-2", Node: "n1"},
		{Kind: recDone, ID: "b-1", Resp: []byte(`{"ok":true}`), Usage: &TenantUsage{Tenant: "acme", Jobs: 1}},
	} {
		if err := j.append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	legacy := append(bytes.Clone(data), base64CkptRecord(8, "b-2", 0, 100, []byte("snap\nbytes"))...)
	legacy = append(legacy, ttlLeaseRecord(9, "b-2", "n1", 3000)...)
	f.Add(data)
	f.Add(data[:len(data)-7])
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jm, err := New(Config{}).replayJournal(path)
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
		_, known := jm.jobs[id]
		before := viewsOf(jm)
		if err := jm.journal.append(journalRecord{Kind: recSubmit, ID: id, Key: "fuzz", Body: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if err := jm.journal.append(journalRecord{Kind: recCkpt, ID: id, Cycle: 7, Snap: []byte("raw\nsnap")}); err != nil {
			t.Fatal(err)
		}
		jm.journal.Close()
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := New(Config{}).replayJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		again.journal.Close()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, written) {
			t.Fatalf("reopening cut the healed journal from %d to %d bytes", len(written), len(after))
		}
		if known {
			return
		}
		after := viewsOf(again)
		if len(after) != len(before)+1 || after[id].Checkpoint != 1 {
			t.Fatalf("reopened journal folds into %d jobs, want the %d before plus the appended one", len(after), len(before))
		}
		for id, v := range before {
			if !reflect.DeepEqual(v, after[id]) {
				t.Fatalf("job %s folds differently after an append:\n%+v\n%+v", id, v, after[id])
			}
		}
	})
}
