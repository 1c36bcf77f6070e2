package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
)

// asyncBatchBody is the shared request of the async tests: small enough
// to finish quickly, big enough (sieve at quick is >1M cycles) to cross
// several checkpoint intervals.
const asyncBatchBody = `{
  "scale": "quick",
  "jobs": [
    {"app": "sieve", "config": {"procs": 4, "threads": 2, "model": "switch-on-use"}},
    {"app": "sor", "config": {"procs": 2, "threads": 2, "model": "explicit-switch"}}
  ]
}`

// sieveBatchBody is a one-entry batch of the run sieveCheckpoint
// checkpoints with 2 threads.
const sieveBatchBody = `{"scale":"quick","jobs":[{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`

// newJournalServer builds a Server with journaling on and serves it
// over httptest. Shutdown (which closes the journal) runs at cleanup.
func newJournalServer(t *testing.T, cfg Config, path string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if _, err := s.EnableJournal(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// getJob reads GET /v2/jobs/{id} at baseURL: the status, the job
// resource when it is 200, and the body.
func getJob(t *testing.T, baseURL, id string) (int, V2Job, []byte) {
	t.Helper()
	status, body := getURL(t, baseURL+"/v2/jobs/"+id)
	var job V2Job
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatalf("job %s: not a job resource: %v: %s", id, err, body)
		}
	}
	return status, job, body
}

// pollJob polls GET /v2/jobs/{id} until the job is done and returns its
// result document.
func pollJob(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status, job, body := getJob(t, ts.URL, id)
		if status != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, status, body)
		}
		if job.Status == JobDone {
			return job.Result
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// TestAsyncBatchLifecycle drives the async path end to end: 202 ack
// with the derived job id, poll to completion, result bytes identical
// to the sync path, idempotent resubmission, and 503 once draining.
func TestAsyncBatchLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, ts := newJournalServer(t, Config{CheckpointEvery: 200_000}, path)

	// Sync reference from a separate journal-less server (sharing the
	// journal server's session would memo the results and leave the
	// async run nothing to simulate — or checkpoint).
	_, plain := newTestServer(t, Config{})
	syncStatus, syncBytes := postBatch(t, plain.URL, "", asyncBatchBody)
	if syncStatus != http.StatusOK {
		t.Fatalf("sync batch: status %d: %s", syncStatus, syncBytes)
	}

	status, body := postBatch(t, ts.URL, "lifecycle-key", asyncBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", status, body)
	}
	var ack V2Job
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.JobID != JobID("lifecycle-key") {
		t.Errorf("job id %s, want %s", ack.JobID, JobID("lifecycle-key"))
	}

	got := pollJob(t, ts, ack.JobID)
	if string(got) != string(syncBytes) {
		t.Errorf("async response differs from sync:\n--- sync ---\n%s\n--- async ---\n%s", syncBytes, got)
	}
	if s.CheckpointsWritten() == 0 {
		t.Error("no checkpoints journaled during the async run")
	}

	// Resubmitting the key is a no-op returning the same job.
	status, body = postBatch(t, ts.URL, "lifecycle-key", asyncBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit: status %d: %s", status, body)
	}
	var again V2Job
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.JobID != ack.JobID || again.Status != JobDone {
		t.Errorf("resubmit ack = %+v, want same id with status done", again)
	}

	// Unknown ids 404.
	if status, _, body := getJob(t, ts.URL, "b-0000000000000000"); status != http.StatusNotFound || envelope(t, body).Code != v2CodeNotFound {
		t.Errorf("unknown job: status %d %s, want 404 not_found", status, body)
	}

	// After a drain the server stops taking jobs (the journal is
	// closed) but keeps serving what it has.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	status, body = postBatch(t, ts.URL, "late-key", asyncBatchBody)
	if status != http.StatusServiceUnavailable || envelope(t, body).Code != v2CodeUnavailable {
		t.Errorf("submit while draining: status %d %s, want 503 unavailable", status, body)
	}
	if got := pollJob(t, ts, ack.JobID); string(got) != string(syncBytes) {
		t.Error("finished job unreadable after drain")
	}
	requireRestartEquivalent(t, s)
}

// TestDoneJobResourceSurvivesRestart: a finished job's resource is
// byte-identical before and after a restart over its journal, progress
// included: replay keeps each entry's generation and cycle when it
// drops the snapshots.
func TestDoneJobResourceSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	cfg := Config{CheckpointEvery: 200_000}
	s, ts := newJournalServer(t, cfg, path)
	const key = "restart-resource"
	if status, body := postBatch(t, ts.URL, key, asyncBatchBody); status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	pollJob(t, ts, JobID(key))
	_, _, before := getJob(t, ts.URL, JobID(key))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newJournalServer(t, cfg, path)
	if _, _, after := getJob(t, ts2.URL, JobID(key)); !bytes.Equal(after, before) {
		t.Errorf("job resource changed across a restart:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}

// TestJobEndpointWithoutJournal: the poll endpoint exists but answers
// 404 not_found when the server runs journal-less.
func TestJobEndpointWithoutJournal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _, body := getJob(t, ts.URL, JobID("x")); status != http.StatusNotFound || envelope(t, body).Code != v2CodeNotFound {
		t.Errorf("status %d %s, want 404 not_found", status, body)
	}
}

// TestRecoveryResumesFromCheckpoint is the deterministic half of the
// crash story: a journal holding a submit plus a real mid-run
// checkpoint (as a crashed server would leave behind) must replay into
// exactly the bytes a never-crashed server produces, and the resumed
// run must write further checkpoints rather than restart from cycle 0.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {

	// Crash-free reference over the sync path.
	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", sieveBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}

	// Fabricate the post-crash journal from a genuine early checkpoint
	// of the job's only entry.
	key := "crash-recovery"
	path := crashedJournal(t, key, sieveBatchBody, sieveCheckpoint(t, 2, 1))

	// "Restart": the replayed job must finish to the reference bytes.
	s, ts := newJournalServer(t, Config{CheckpointEvery: 200_000}, path)
	if s.JournalReplayed() != 1 {
		t.Fatalf("JournalReplayed = %d, want 1", s.JournalReplayed())
	}
	got := pollJob(t, ts, JobID(key))
	if string(got) != string(ref) {
		t.Errorf("recovered response differs from crash-free run:\n--- reference ---\n%s\n--- recovered ---\n%s", ref, got)
	}
	if s.CheckpointsWritten() == 0 {
		t.Error("resumed run journaled no further checkpoints")
	}
	requireRestartEquivalent(t, s)
}

// sieveCheckpoint returns the n-th checkpoint (counting from 1) of the
// quick sieve run on 4 processors with the given thread count, taken
// every 200,000 cycles.
func sieveCheckpoint(t *testing.T, threads, n int) JobCheckpoint {
	t.Helper()
	return runCheckpoints(t, "sieve", ConfigRequest{Procs: 4, Threads: threads, Model: "switch-on-use"}, 200_000, n)[n-1]
}

// runCheckpoints returns the first n checkpoints of the quick run of
// appName under cfgReq, taken every interval cycles.
func runCheckpoints(t *testing.T, appName string, cfgReq ConfigRequest, interval int64, n int) []JobCheckpoint {
	t.Helper()
	cfg, err := cfgReq.ToMachine()
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []JobCheckpoint
	sink := errors.New("checkpoint captured")
	_, err = core.NewSession().RunCheckpointedContext(context.Background(), apps.MustNew(appName, app.Quick), cfg, core.CheckpointConfig{
		Interval: interval,
		OnCheckpoint: func(cycle int64, snap []byte) error {
			ckpts = append(ckpts, JobCheckpoint{Cycle: cycle, Snap: snap})
			if len(ckpts) == n {
				return sink
			}
			return nil
		},
	})
	if !errors.Is(err, sink) {
		t.Fatalf("checkpoint capture: %v", err)
	}
	return ckpts
}

// crashedJournal writes the journal a crashed server leaves behind: an
// acknowledged job under key, one checkpoint of its first entry, no
// done record. It returns the journal's path.
func crashedJournal(t *testing.T, key, body string, ckpt JobCheckpoint) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	appendT(t, j, journalRecord{Kind: recSubmit, ID: JobID(key), Key: key, Body: []byte(body)})
	if err := j.AppendCkpt(JobID(key), 0, ckpt.Cycle, ckpt.Snap); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// relabelled is checkpoint c with its snapshot relabelled as format
// version and its CRC fixed up: a snapshot restore rejects as a
// mismatch when version is outside the restore window.
func relabelled(c JobCheckpoint, version uint32) JobCheckpoint {
	b := bytes.Clone(c.Snap)
	binary.LittleEndian.PutUint32(b[4:8], version)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return JobCheckpoint{Cycle: c.Cycle, Snap: b}
}

// TestRecoveryRestartsOverUnrestorableCheckpoint: a journaled
// checkpoint that restore rejects as a mismatch (a format outside the
// restore window, or a snapshot of another configuration) restarts its
// batch entry from cycle 0 instead of failing it. The job still
// finishes with the crash-free bytes, the restarted entry's checkpoints
// start a new generation, and its events, below the stale checkpoint's,
// fold into the replayed history in order and without duplicates.
func TestRecoveryRestartsOverUnrestorableCheckpoint(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", sieveBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}

	// Third checkpoints, so the restarted entry's first ones fall below.
	own := sieveCheckpoint(t, 2, 3)
	for _, tc := range []struct {
		name  string
		stale JobCheckpoint
	}{
		{"format-3", relabelled(own, 3)},
		{"format-6", relabelled(own, machine.SnapshotVersion+1)},
		{"other-config", sieveCheckpoint(t, 3, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := JobID(tc.name)
			path := crashedJournal(t, tc.name, sieveBatchBody, tc.stale)
			s, ts := newJournalServer(t, Config{CheckpointEvery: 200_000}, path)
			if got := pollJob(t, ts, id); string(got) != string(ref) {
				t.Errorf("restarted response differs from crash-free run:\n--- reference ---\n%s\n--- restarted ---\n%s", ref, got)
			}
			job := s.jm.get(id)
			job.mu.Lock()
			events := append([]JobEvent(nil), job.events...)
			gen := job.ckpts[0].Gen
			job.mu.Unlock()
			if gen != 1 {
				t.Errorf("the restarted entry's checkpoints are of generation %d, want 1", gen)
			}
			if len(events) == 0 || events[0].Cycle >= tc.stale.Cycle {
				t.Errorf("entry did not restart below the stale checkpoint at cycle %d: events %v", tc.stale.Cycle, events)
			}
			for i := 1; i < len(events); i++ {
				if !events[i].after(events[i-1]) {
					t.Fatalf("history not sorted and duplicate-free at %d: %v", i, events)
				}
			}
			if !slices.Contains(events, JobEvent{Entry: 0, Cycle: tc.stale.Cycle}) {
				t.Errorf("the stale checkpoint's event at cycle %d left the history: %v", tc.stale.Cycle, events)
			}
			requireRestartEquivalent(t, s)
		})
	}
}

// TestCheckpointCountsDistinctEvents: an entry rerun from cycle 0 emits
// checkpoints again below the stale one, some at cycles already in the
// history. The job's checkpoint count is its number of distinct events,
// live and after a restart, so it never goes back.
func TestCheckpointCountsDistinctEvents(t *testing.T) {
	const key = "rerun-count"
	id := JobID(key)
	cfg := Config{CheckpointEvery: 200_000}
	path := crashedJournal(t, key, sieveBatchBody, relabelled(sieveCheckpoint(t, 2, 3), 3))
	s, ts := newJournalServer(t, cfg, path)
	pollJob(t, ts, id)
	_, live, _ := getJob(t, ts.URL, id)
	job := s.jm.get(id)
	job.mu.Lock()
	events := len(job.events)
	job.mu.Unlock()
	if live.Checkpoint != int64(events) {
		t.Errorf("live checkpoint count %d, want the %d distinct events", live.Checkpoint, events)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newJournalServer(t, cfg, path)
	if _, replayed, _ := getJob(t, ts2.URL, id); replayed.Checkpoint != live.Checkpoint {
		t.Errorf("checkpoint count went from %d to %d across a restart", live.Checkpoint, replayed.Checkpoint)
	}
}

// TestDrainMidJobLeavesItResumable kills the dispatcher at an arbitrary
// point of a running job (drain with an already-dead context) and
// restarts over the same journal. Whatever the interleaving — job not
// started, mid-run with checkpoints, or already done — the client must
// end up reading the crash-free bytes.
func TestDrainMidJobLeavesItResumable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s1 := New(Config{CheckpointEvery: 100_000})
	if _, err := s1.EnableJournal(path); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	key := "drain-mid-job"
	status, body := postBatch(t, ts1.URL, key, asyncBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	time.Sleep(10 * time.Millisecond) // let the job get partway in
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Shutdown(dead) // expired drain: the in-flight job is aborted
	ts1.Close()

	s2, ts2 := newJournalServer(t, Config{CheckpointEvery: 100_000}, path)
	if s2.JournalReplayed() != 1 {
		t.Fatalf("JournalReplayed = %d, want 1", s2.JournalReplayed())
	}
	got := pollJob(t, ts2, JobID(key))

	refStatus, ref := postBatch(t, ts2.URL, "", asyncBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}
	if string(got) != string(ref) {
		t.Errorf("recovered job differs from crash-free run:\n--- reference ---\n%s\n--- recovered ---\n%s", ref, got)
	}
	requireRestartEquivalent(t, s2)
}

// TestReplayedJobWithBadBodyFails: a journaled body that no longer
// validates resolves to a recorded error document, the job's result,
// instead of wedging the queue.
func TestReplayedJobWithBadBodyFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	appendT(t, j, journalRecord{Kind: recSubmit, ID: JobID("bad"), Key: "bad",
		Body: []byte(`{"jobs":[{"app":"no-such-app","config":{"procs":1,"threads":1,"model":"switch-on-use"}}]}`)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts := newJournalServer(t, Config{}, path)
	got := pollJob(t, ts, JobID("bad"))
	var e errorResponse
	if err := json.Unmarshal(got, &e); err != nil || e.Error == "" {
		t.Fatalf("want a recorded error response, got: %s", got)
	}
}

// FuzzParseEventID: the SSE Last-Event-ID parser never panics, and an
// id it accepts names an event at a non-negative entry and cycle whose
// own id parses back to it.
func FuzzParseEventID(f *testing.F) {
	for _, seed := range []string{"0-0", "3-150000", "-1-5", "1--5", "+2-07", "1-2-3", "x", "", "9223372036854775807-9223372036854775807"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, ok := parseEventID(s)
		if !ok {
			return
		}
		if e.Entry < 0 || e.Cycle < 0 {
			t.Fatalf("parseEventID(%q) accepted %+v", s, e)
		}
		if back, ok := parseEventID(e.ID()); !ok || back != e {
			t.Fatalf("parseEventID(%q) = %+v, whose id %q parses to %+v, %v", s, e, e.ID(), back, ok)
		}
	})
}
