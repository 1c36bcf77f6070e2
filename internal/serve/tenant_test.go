package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// newSchedJM builds a bare job manager for scheduler-level tests: no
// journal, no dispatchers — jobs go in through enqueueLocked and come
// out through nextLocked, so the dispatch order is fully observable.
func newSchedJM(cfg Config) *jobManager {
	jm := &jobManager{
		srv:    New(cfg),
		jobs:   make(map[string]*asyncJob),
		queues: make(map[string]*tenantQueue),
	}
	jm.cond = sync.NewCond(&jm.mu)
	return jm
}

// TestFairShareDrainRatio: with every tenant backlogged, any dispatch
// window the size of the weight sum drains each tenant proportionally
// to its weight, within one job — the deficit-round-robin guarantee.
func TestFairShareDrainRatio(t *testing.T) {
	cases := []struct {
		name    string
		tenants []TenantConfig
		perQ    int            // jobs enqueued per tenant
		window  int            // dispatches to examine
		want    map[string]int // expected dispatches per tenant in the window
	}{
		{
			name:    "10:1 skew",
			tenants: []TenantConfig{{Name: "heavy", Weight: 10}, {Name: "light", Weight: 1}},
			perQ:    20, window: 11,
			want: map[string]int{"heavy": 10, "light": 1},
		},
		{
			name:    "equal weights",
			tenants: []TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
			perQ:    10, window: 10,
			want: map[string]int{"a": 5, "b": 5},
		},
		{
			name: "3:2:1 three-way",
			tenants: []TenantConfig{
				{Name: "x", Weight: 3}, {Name: "y", Weight: 2}, {Name: "z", Weight: 1},
			},
			perQ: 12, window: 6,
			want: map[string]int{"x": 3, "y": 2, "z": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jm := newSchedJM(Config{Tenants: tc.tenants})
			jm.mu.Lock()
			defer jm.mu.Unlock()
			// Interleave the submit order round-robin across tenants so
			// arrival order cannot accidentally produce the expected mix.
			for i := 0; i < tc.perQ; i++ {
				for _, tnc := range tc.tenants {
					job := newAsyncJob(fmt.Sprintf("%s-%d", tnc.Name, i), "", tnc.Name)
					job.status = JobQueued
					jm.enqueueLocked(job)
				}
			}
			got := make(map[string]int)
			for i := 0; i < tc.window; i++ {
				job := jm.nextLocked()
				if job == nil {
					t.Fatalf("nextLocked returned nil at dispatch %d", i)
				}
				got[job.tenant]++
			}
			for name, want := range tc.want {
				if diff := got[name] - want; diff < -1 || diff > 1 {
					t.Errorf("tenant %s: %d dispatches in window %d, want %d±1 (full mix: %v)",
						name, got[name], tc.window, want, got)
				}
			}
		})
	}
}

// TestFairShareIdleTenantForfeitsCredit: a tenant with no backlog banks
// nothing — when it comes back it competes from zero instead of
// bursting on saved credit.
func TestFairShareIdleTenantForfeitsCredit(t *testing.T) {
	jm := newSchedJM(Config{Tenants: []TenantConfig{
		{Name: "busy", Weight: 1}, {Name: "idle", Weight: 5},
	}})
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for i := 0; i < 6; i++ {
		job := newAsyncJob(fmt.Sprintf("busy-%d", i), "", "busy")
		job.status = JobQueued
		jm.enqueueLocked(job)
	}
	// Materialize the idle tenant's queue with one job, drain everything:
	// the idle queue empties first pass and must reset its deficit.
	j := newAsyncJob("idle-0", "", "idle")
	j.status = JobQueued
	jm.enqueueLocked(j)
	for jm.nextLocked() != nil {
	}
	if d := jm.queues["idle"].deficit; d != 0 {
		t.Errorf("idle tenant banked %d credits across an empty period, want 0", d)
	}
}

// TestFairShareSingleTenantPreservesSubmitOrder: with one tenant,
// deficit round-robin drains in submit order, including jobs submitted
// between dispatches.
func TestFairShareSingleTenantPreservesSubmitOrder(t *testing.T) {
	jm := newSchedJM(Config{Tenants: []TenantConfig{{Name: "solo", Weight: 3}}})
	jm.mu.Lock()
	defer jm.mu.Unlock()
	submit := func(id string) {
		job := newAsyncJob(id, "", "solo")
		job.status = JobQueued
		jm.enqueueLocked(job)
	}
	ids := []string{"j-0", "j-1", "j-2", "j-3", "j-4", "j-5", "j-6"}
	for _, id := range ids[:5] {
		submit(id)
	}
	for i, want := range ids {
		if i == 2 {
			submit(ids[5])
			submit(ids[6])
		}
		job := jm.nextLocked()
		if job == nil || job.id != want {
			t.Fatalf("dispatch %d: got %v, want %s", i, job, want)
		}
	}
	if jm.nextLocked() != nil {
		t.Error("queue not empty after draining all submissions")
	}
}

// TestJournalReplayRestoresUsage is the regression test of the replay
// bugfix: done records carry the usage delta their job accrued, and a
// restart folds those deltas back into the tenant counters instead of
// resetting accounting to zero.
func TestJournalReplayRestoresUsage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	resp := []byte(`{"schema":1}`)
	for i, u := range []*TenantUsage{
		{Tenant: "acme", Jobs: 1, SimCycles: 123_456, QueueMS: 7},
		{Tenant: "acme", Jobs: 1, SimCycles: 1_000, QueueMS: 3},
		{Tenant: "globex", Jobs: 1, SimCycles: 42, QueueMS: 0},
		nil, // a replicated finish: the executing node accounted it
	} {
		key := fmt.Sprintf("usage-%d", i)
		appendT(t, j,
			journalRecord{Kind: recSubmit, ID: JobID(key), Key: key, Tenant: "acme", Body: []byte(`{}`)},
			journalRecord{Kind: recDone, ID: JobID(key), Resp: resp, Usage: u})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, _ := newJournalServer(t, Config{}, path)
	if got := s.JournalReplayed(); got != 4 {
		t.Fatalf("JournalReplayed = %d, want 4", got)
	}
	if got := s.tenants.get("acme").usage(); got.Jobs != 2 || got.SimCycles != 124_456 || got.QueueMS != 10 {
		t.Errorf("acme usage after replay = %+v, want jobs=2 sim_cycles=124456 queue_ms=10", got)
	}
	if got := s.tenants.get("globex").usage(); got.Jobs != 1 || got.SimCycles != 42 {
		t.Errorf("globex usage after replay = %+v, want jobs=1 sim_cycles=42", got)
	}
}

// TestReplaySnaplessCkptBackfillsEventsOnly: snapless ckpt records (the
// cluster's event-history backfill) extend the SSE event sequence on
// replay but never become resume points. So does a record written
// before the raw snapshot framing, whose snapshot sits base64-encoded
// in the JSON as "snap": it still verifies, so replay keeps it (and
// does not truncate the journal there), but it resumes nothing.
func TestReplaySnaplessCkptBackfillsEventsOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j := openJournalT(t, path)
	id := JobID("backfill")
	appendT(t, j, journalRecord{Kind: recSubmit, ID: id, Key: "backfill", Tenant: "t1", Body: []byte(`{}`)})
	snap := []byte("machine-snapshot")
	for _, rec := range []struct {
		entry int
		cycle int64
		snap  []byte
	}{
		{0, 100, nil},  // backfilled: event only
		{0, 200, snap}, // real checkpoint: event + resume point
		{1, 100, nil},  // backfilled on a later entry
	} {
		if err := j.AppendCkpt(id, rec.entry, rec.cycle, rec.snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	written = append(written, base64CkptRecord(5, id, 1, 200, snap)...)
	if err := os.WriteFile(path, written, 0o644); err != nil {
		t.Fatal(err)
	}

	jm := replayT(t, path)
	if after, _ := os.ReadFile(path); !bytes.Equal(after, written) {
		t.Fatalf("replay cut the journal from %d to %d bytes", len(written), len(after))
	}
	if len(jm.jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jm.jobs))
	}
	job := viewIn(t, jm, id)
	wantEvents := []JobEvent{{Entry: 0, Cycle: 100}, {Entry: 0, Cycle: 200}, {Entry: 1, Cycle: 100}, {Entry: 1, Cycle: 200}}
	if len(job.Events) != len(wantEvents) {
		t.Fatalf("replayed events %v, want %v", job.Events, wantEvents)
	}
	for i, e := range wantEvents {
		if job.Events[i] != e {
			t.Errorf("event %d = %v, want %v", i, job.Events[i], e)
		}
	}
	if len(job.Ckpts) != 1 {
		t.Fatalf("replayed %d resume points, want 1 (snapless and base64 records must not resume): %v", len(job.Ckpts), job.Ckpts)
	}
	if c := job.Ckpts[0]; c.Cycle != 200 || string(c.Snap) != string(snap) {
		t.Errorf("entry-0 resume point = cycle %d, want the cycle-200 snapshot", c.Cycle)
	}
}

// TestTwoTenantLoadIsolation is the acceptance load test: one tenant's
// flood is already queued ahead of a higher-weight interactive
// tenant's jobs, and the fair-share dispatcher must still pull the
// interactive jobs to the front of the drain so their queue wait stays
// bounded by the flood's. The backlog is staged through the journal so
// every job is queued before the dispatcher pool starts — the drain
// order is then purely the scheduler's decision, not a race against
// how fast simulations or submissions happen to run.
func TestTwoTenantLoadIsolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	// Each job gets a distinct latency so the shared session cannot memo
	// one result and hand it to the rest for free — every job simulates.
	body := func(latency int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(
			`{"scale":"quick","jobs":[{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use","latency":%d}}]}`, latency))
	}
	j := openJournalT(t, path)
	const floodN, vipN = 6, 2
	var floodIDs, vipIDs []string
	for i := 0; i < floodN; i++ {
		key := fmt.Sprintf("flood-%d", i)
		appendT(t, j, journalRecord{Kind: recSubmit, ID: JobID(key), Key: key, Tenant: "flood", Body: body(10 + i)})
		floodIDs = append(floodIDs, JobID(key))
	}
	for i := 0; i < vipN; i++ {
		key := fmt.Sprintf("vip-%d", i)
		appendT(t, j, journalRecord{Kind: recSubmit, ID: JobID(key), Key: key, Tenant: "vip", Body: body(100 + i)})
		vipIDs = append(vipIDs, JobID(key))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, _ := newJournalServer(t, Config{
		Workers: 2, Dispatchers: 1, CheckpointEvery: 500_000,
		Tenants: []TenantConfig{{Name: "vip", Weight: 8}},
	}, path)
	if got := s.JournalReplayed(); got != floodN+vipN {
		t.Fatalf("JournalReplayed = %d, want %d", got, floodN+vipN)
	}

	all := append(append([]string{}, floodIDs...), vipIDs...)
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range all {
		for {
			status, _, _ := s.jm.get(id).state()
			if status == JobDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Dispatch order = the order the single dispatcher started the jobs.
	// The entire flood was queued first, yet weight 8 vs 1 must pull
	// both vip jobs into the front of the drain: the expected order is
	// one flood job (the round-robin pointer's resting tenant), then
	// both vip jobs, then the remaining flood.
	type startRec struct {
		id, tenant string
		started    time.Time
	}
	order := make([]startRec, 0, len(all))
	for _, id := range all {
		job := s.jm.get(id)
		job.mu.Lock()
		order = append(order, startRec{id, job.tenant, job.started})
		job.mu.Unlock()
	}
	sort.Slice(order, func(i, k int) bool { return order[i].started.Before(order[k].started) })
	pos := make(map[string]int, len(order))
	var seq []string
	for i, r := range order {
		pos[r.id] = i
		seq = append(seq, r.tenant)
	}
	for _, id := range vipIDs {
		if pos[id] > 3 {
			t.Errorf("vip job %s dispatched at position %d — flood starved it (order %v)", id, pos[id], seq)
		}
	}

	// The accounting must agree: both tenants on the usage table with
	// their job counts, and the interactive tenant's average queue wait
	// no worse than the flooder's (it waited behind at most a job or
	// two; the flood waited behind itself).
	var flood, vip TenantUsage
	for _, u := range s.tenants.table() {
		switch u.Tenant {
		case "flood":
			flood = u
		case "vip":
			vip = u
		}
	}
	if flood.Jobs != floodN || vip.Jobs != vipN {
		t.Errorf("usage jobs: flood=%d vip=%d, want %d and %d", flood.Jobs, vip.Jobs, floodN, vipN)
	}
	if flood.SimCycles == 0 || vip.SimCycles == 0 {
		t.Error("usage sim_cycles not accrued for both tenants")
	}
	if vipAvg, floodAvg := vip.QueueMS/vipN, flood.QueueMS/floodN; vipAvg > floodAvg {
		t.Errorf("vip average queue wait %dms exceeds flooder's %dms — fair share failed to bound it", vipAvg, floodAvg)
	}
}
