package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// sideBySideBody is a two-entry batch whose entry 1 (sor, about 350k
// cycles) finishes long before entry 0 (sieve, about 1.3M cycles) when
// the two run side by side.
const sideBySideBody = `{"scale":"quick","jobs":[
{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}},
{"app":"sor","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`

// holdGate takes every gate slot of s, so a dispatched job waits at
// admission until the returned func (safe to call twice) releases them.
func holdGate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	var rels []func()
	for i := 0; i < s.cfg.Workers; i++ {
		rel, err := s.gate.AcquireWait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, rel := range rels {
				rel()
			}
		})
	}
}

// subscribe opens job id's event stream after the cursor lastEventID
// ("" for the start) and delivers its frames on the returned channel,
// which closes after the done event or when the stream breaks.
func subscribe(t *testing.T, ts *httptest.Server, id, lastEventID string) <-chan sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream %s: status %d: %s", id, resp.StatusCode, body)
	}
	// Room for every frame of these jobs (about 90), so the reader never
	// blocks on a test that stopped receiving.
	frames := make(chan sseFrame, 1024)
	go func() {
		defer close(frames)
		defer resp.Body.Close()
		_ = scanSSE(resp.Body, func(f sseFrame) { frames <- f })
	}()
	return frames
}

// historyIDs returns the ids of the job's recorded events after cursor,
// and whether the job is done.
func historyIDs(job *asyncJob, cursor JobEvent) ([]string, bool) {
	job.mu.Lock()
	defer job.mu.Unlock()
	var ids []string
	for _, e := range job.events {
		if e.after(cursor) {
			ids = append(ids, e.ID())
		}
	}
	return ids, job.status == JobDone
}

// TestLiveFeedIsHistoryPrefix: the entries of an async batch run side
// by side, and entry 1 of this batch finishes first. A subscriber that
// follows the job from before it starts must still get strictly
// increasing ids that, at done, equal the job's whole history: no event
// of entry 0 may be skipped because the feed had moved into entry 1.
func TestLiveFeedIsHistoryPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, ts := newJournalServer(t, Config{Workers: 2, SessionWorkers: 2, CheckpointEvery: 20_000}, path)
	release := holdGate(t, s)
	defer release()
	const key = "live-prefix"
	if status, body := postBatch(t, ts.URL, key, sideBySideBody); status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	frames := subscribe(t, ts, JobID(key), "")
	if f := <-frames; f.event != "status" {
		t.Fatalf("first frame is %q, want status", f.event)
	}
	release()

	var ids []string
	prev := sseCursorStart
	for f := range frames {
		if f.event != "checkpoint" {
			continue
		}
		ev, ok := parseEventID(f.id)
		if !ok || !ev.after(prev) {
			t.Fatalf("event %s does not advance past %s", f.id, prev.ID())
		}
		prev = ev
		ids = append(ids, f.id)
	}
	want, done := historyIDs(s.jm.get(JobID(key)), sseCursorStart)
	if !done {
		t.Fatal("stream ended before the job was done")
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Errorf("live feed differs from the history:\n--- history (%d) ---\n%s\n--- live (%d) ---\n%s",
			len(want), strings.Join(want, " "), len(ids), strings.Join(ids, " "))
	}
}

// TestJournalInterleavesEntriesBySessionWidth: with two session
// workers the batch's entries run at once, so the journal holds a
// checkpoint of entry 1 before entry 0's last one; with one they run in
// order and do not interleave.
func TestJournalInterleavesEntriesBySessionWidth(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("SessionWorkers=%d", width), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			s, ts := newJournalServer(t, Config{Workers: 2, SessionWorkers: width, CheckpointEvery: 20_000}, path)
			const key = "interleave"
			if status, body := postBatch(t, ts.URL, key, sideBySideBody); status != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", status, body)
			}
			pollJob(t, ts, JobID(key))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			j, jobs, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			if len(jobs) != 1 {
				t.Fatalf("journal holds %d jobs, want 1", len(jobs))
			}
			first1, last0 := -1, -1
			for i, e := range jobs[0].Events {
				if e.Entry == 0 {
					last0 = i
				} else if first1 < 0 {
					first1 = i
				}
			}
			if first1 < 0 || last0 < 0 {
				t.Fatalf("journal lacks checkpoints of both entries: %v", jobs[0].Events)
			}
			if interleaved := first1 < last0; interleaved != (width > 1) {
				t.Errorf("entry 1's first checkpoint is record %d, entry 0's last is %d: interleaved=%v with %d session workers",
					first1, last0, interleaved, width)
			}
		})
	}
}

// TestReplayedCursorWaitsForEarlierEntries: a crashed server's journal
// holds checkpoints of both entries, as entries that ran side by side
// leave it. A subscriber resuming with a cursor in entry 1 gets nothing
// while entry 0 is unfinished (more of entry 0's events may come, and
// they sort before the cursor), and once it finishes exactly the
// history's tail after the cursor.
func TestReplayedCursorWaitsForEarlierEntries(t *testing.T) {
	cfg := ConfigRequest{Procs: 4, Threads: 2, Model: "switch-on-use"}
	sieve := runCheckpoints(t, "sieve", cfg, 20_000, 2)
	sor := runCheckpoints(t, "sor", cfg, 20_000, 3)
	const key = "replayed-cursor"
	id := JobID(key)
	path := filepath.Join(t.TempDir(), "wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit(id, key, "", []byte(sideBySideBody)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		entry int
		c     JobCheckpoint
	}{{0, sieve[0]}, {1, sor[0]}, {0, sieve[1]}, {1, sor[1]}, {1, sor[2]}} {
		if err := j.AppendCheckpoint(id, rec.entry, rec.c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Hold the gate before the journal replays, so the job cannot run
	// until the subscriber is in place.
	s := New(Config{Workers: 2, SessionWorkers: 2, CheckpointEvery: 20_000})
	release := holdGate(t, s)
	defer release()
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
	job := s.jm.get(id)
	cursor := JobEvent{Entry: 1, Cycle: sor[0].Cycle}
	frames := subscribe(t, ts, id, cursor.ID())
	if f := <-frames; f.event != "status" {
		t.Fatalf("first frame is %q, want status", f.event)
	}
	release()

	var got []string
	for f := range frames {
		if f.event != "checkpoint" {
			continue
		}
		job.mu.Lock()
		entry0Done := job.status == JobDone || (len(job.finished) > 0 && job.finished[0])
		job.mu.Unlock()
		if !entry0Done {
			t.Fatalf("event %s arrived before entry 0 finished", f.id)
		}
		got = append(got, f.id)
	}
	want, done := historyIDs(job, cursor)
	if !done {
		t.Fatal("stream ended before the job was done")
	}
	if len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("resume from %s delivered %v, want exactly the tail %v", cursor.ID(), got, want)
	}
}
