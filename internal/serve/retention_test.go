package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// retentionBatch is a two-entry job that crosses many checkpoints.
const retentionBatch = `{"scale":"quick","jobs":[` +
	`{"app":"water","config":{"procs":4,"threads":2,"model":"switch-on-use"}},` +
	`{"app":"sor","config":{"procs":2,"threads":2,"model":"explicit-switch"}}]}`

// TestFinishedJobHoldsNoSnapshots: once a job finishes, neither its
// owner nor a replica holds snapshot bytes for it — on the owner path
// (finish), on a replica that hears of the finish (storeReplica), and
// on a node that adopts a finished job it held as a replica
// (adoptOwned). What clients and peers see of the finished job does not
// change: the GET body, the SSE replay from a Last-Event-ID and the
// state a replica push carries match testdata/finished_job_views.golden,
// rendered by the release that still kept the snapshots.
func TestFinishedJobHoldsNoSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, ts := newJournalServer(t, Config{CheckpointEvery: 20_000}, filepath.Join(dir, "owner.wal"))
	status, ack := postBatch(t, ts.URL, "retention", retentionBatch)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, ack)
	}
	id := JobID("retention")
	pollJob(t, ts, id)
	requireNoSnapshots(t, "owner", s, id)

	got := finishedJobViews(t, s, ts, id)
	want, err := os.ReadFile(filepath.Join("testdata", "finished_job_views.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("finished job views changed\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// A replica first holds a running state with snapshots, then hears
	// of the finish.
	done := s.jm.jobState(id)
	running := *done
	running.Status, running.Resp = JobRunning, nil
	running.Ckpts = nil
	for _, c := range done.Ckpts {
		running.Ckpts = append(running.Ckpts, JobStateCkpt{Entry: c.Entry, Cycle: c.Cycle, Snap: []byte("snapshot")})
	}
	for _, path := range []string{"replica", "adopt"} {
		r, _ := newJournalServer(t, Config{}, filepath.Join(dir, path+".wal"))
		if err := r.jm.storeReplica(&running); err != nil {
			t.Fatal(err)
		}
		hear := r.jm.storeReplica
		if path == "adopt" {
			hear = r.jm.adoptOwned
		}
		if err := hear(done); err != nil {
			t.Fatal(err)
		}
		requireNoSnapshots(t, path, r, id)
		if a, b := renderJobState(done), renderJobState(r.jm.jobState(id)); a != b {
			t.Errorf("%s: state differs from the owner's\n--- owner ---\n%s\n--- %s ---\n%s", path, a, path, b)
		}
	}
}

// requireNoSnapshots fails unless server s holds job id finished, with
// a checkpoint cycle per entry and no snapshot bytes.
func requireNoSnapshots(t *testing.T, who string, s *Server, id string) {
	t.Helper()
	job := s.jm.get(id)
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.status != JobDone {
		t.Fatalf("%s: job status %q, want done", who, job.status)
	}
	if len(job.ckpts) != 2 {
		t.Errorf("%s: %d checkpoint entries, want one per batch entry", who, len(job.ckpts))
	}
	for entry, c := range job.ckpts {
		if c.Snap != nil || c.Cycle == 0 {
			t.Errorf("%s: entry %d holds %d snapshot bytes at cycle %d", who, entry, len(c.Snap), c.Cycle)
		}
	}
}

// finishedJobViews renders what clients and peers see of a finished
// job: the GET /v2/jobs/{id} body, the SSE stream replayed from its
// first checkpoint event, and the state a replica push carries.
func finishedJobViews(t *testing.T, s *Server, ts *httptest.Server, id string) string {
	t.Helper()
	var b strings.Builder
	status, body := getURL(t, ts.URL+"/v2/jobs/"+id)
	fmt.Fprintf(&b, "GET /v2/jobs/{id}: %d\n%s\n", status, body)

	job := s.jm.get(id)
	job.mu.Lock()
	first := job.events[0].ID()
	job.mu.Unlock()
	req, err := http.NewRequest("GET", ts.URL+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", first)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "SSE from Last-Event-ID %s: %d\n%s", first, resp.StatusCode, events)

	fmt.Fprintf(&b, "replica push:\n%s", renderJobState(s.jm.jobState(id)))
	return b.String()
}

// renderJobState is a JobState's content apart from snapshot bytes and
// holder, one field per line.
func renderJobState(st *JobState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "id %s key %s tenant %s status %s progress %d\n", st.ID, st.Key, st.Tenant, st.Status, st.Progress)
	fmt.Fprintf(&b, "body %s\n", st.Body)
	for _, c := range st.Ckpts {
		fmt.Fprintf(&b, "ckpt %d@%d\n", c.Entry, c.Cycle)
	}
	for _, e := range st.Events {
		fmt.Fprintf(&b, "event %s\n", e.ID())
	}
	fmt.Fprintf(&b, "resp %s\n", st.Resp)
	return b.String()
}
