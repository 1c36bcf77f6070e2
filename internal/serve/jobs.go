package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtsim/internal/core"
	"mtsim/internal/machine"
)

// Async batch jobs. A batch request carrying an idempotency key on a
// journaling server is journaled and acknowledged with 202 before it
// runs; the client polls the job resource (or streams its SSE event
// feed) for the result. The job's checkpoints and final response all go
// through the journal, so a SIGKILL at any point leaves the job either
// resumable (from its latest checkpoint) or already answered (the done
// record's bytes are served verbatim) — in both cases the response the
// client eventually reads is byte-identical to the one an uncrashed
// server would have produced.
//
// Scheduling is multi-tenant: each tenant has its own FIFO queue, and a
// pool of dispatchers drains the queues by deficit round-robin weighted
// by the tenants' configured shares. One tenant's batch flood therefore
// cannot starve another tenant — exactly the paper's latency-hiding
// thesis applied to the serving plane: the scheduler always has
// somewhere useful to switch to. Within a job the same holds: a
// dispatcher runs one job at a time, in one gate slot, and spreads the
// job's independent entries over its session's worker pool, as a sync
// batch does, so no session worker idles while an entry is left. The
// pool is sized below the gate's worker count, so async work cannot
// occupy every gate slot and interactive (sync) requests keep bounded
// queue waits regardless of the async backlog — except with a single
// worker, where the pool is still one dispatcher and an async job can
// hold the only worker (see Config.Dispatchers).

// Job lifecycle states, as a V2Job's status reports them. JobReplica
// marks a job this node holds only as another node's failover copy
// (cluster mode); it never runs locally unless a claim or handoff
// promotes it.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobReplica = "replica"
)

// JobID derives the stable job id for an idempotency key. The id, not
// the key, names the job on the wire, so clients may use long or
// sensitive keys without them appearing in URLs.
func JobID(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("b-%016x", h.Sum64())
}

// JobEvent is one checkpoint progress event on a job's SSE feed: batch
// entry index and the simulation cycle the checkpoint was taken at.
// Because checkpoint cycles are deterministic (every CheckpointEvery
// cycles, and completed runs are byte-identical), the full event
// sequence of a job is deterministic too — the property that lets a
// failover successor regenerate exactly the events a dead node never
// delivered, with no duplicates and no gaps.
type JobEvent struct {
	Entry int   `json:"entry"`
	Cycle int64 `json:"cycle"`
}

// ID renders the event's SSE id: "<entry>-<cycle>". Events are totally
// ordered entry-major, and a subscriber sees a prefix of that order
// (eventsAfterLocked), so this id doubles as a resume cursor via
// Last-Event-ID.
func (e JobEvent) ID() string {
	return strconv.Itoa(e.Entry) + "-" + strconv.FormatInt(e.Cycle, 10)
}

// after reports whether e comes after o in the deterministic order.
func (e JobEvent) after(o JobEvent) bool {
	return e.Entry > o.Entry || (e.Entry == o.Entry && e.Cycle > o.Cycle)
}

// parseEventID parses a Last-Event-ID back into its event.
func parseEventID(s string) (JobEvent, bool) {
	entry, cycle, found := strings.Cut(s, "-")
	if !found {
		return JobEvent{}, false
	}
	en, err1 := strconv.Atoi(entry)
	cy, err2 := strconv.ParseInt(cycle, 10, 64)
	if err1 != nil || err2 != nil || en < 0 || cy < 0 {
		return JobEvent{}, false
	}
	return JobEvent{Entry: en, Cycle: cy}, true
}

// sortDedupEvents normalizes an event list into the deterministic
// (entry, cycle) order with duplicates removed.
func sortDedupEvents(evs []JobEvent) []JobEvent {
	if len(evs) == 0 {
		return nil
	}
	out := append([]JobEvent(nil), evs...)
	sort.Slice(out, func(i, j int) bool { return out[j].after(out[i]) })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// asyncJob is one journaled batch job.
type asyncJob struct {
	id     string
	key    string
	tenant string

	mu  sync.Mutex
	sub *sync.Cond // broadcast on new events / status changes (SSE wakeups)

	body    json.RawMessage
	ckpts   map[int]JobCheckpoint // latest checkpoint per batch entry
	status  string
	resp    []byte // final response bytes once status == JobDone
	replica bool   // held for another node, never queued while set
	ckptN   int64  // checkpoints journaled so far (monotone)

	// events is the complete checkpoint event history in deterministic
	// (entry, cycle) order — what SSE subscribers replay and live-tail.
	events []JobEvent
	// entries/entriesDone track batch progress for the advisory ETA.
	entries     int
	entriesDone int
	started     time.Time
	// finished marks the entries this process's run has finished, and
	// front is the lowest entry it has not: subscribers see no event of
	// a later entry until the job is done (eventsAfterLocked).
	finished []bool
	front    int

	// queuedAt/queueMS account time spent waiting for a dispatcher.
	queuedAt time.Time
	queueMS  int64

	// replBusy serializes replica pushes for this job: at most one push
	// is in flight, later ones are absorbed by the next checkpoint's.
	replBusy atomic.Bool
}

func newAsyncJob(id, key, tenant string) *asyncJob {
	if tenant == "" {
		tenant = DefaultTenant
	}
	j := &asyncJob{id: id, key: key, tenant: tenant}
	j.sub = sync.NewCond(&j.mu)
	return j
}

func (j *asyncJob) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.sub.Broadcast()
	j.mu.Unlock()
}

// state returns the status, the latest checkpoint index and, when done,
// the response bytes.
func (j *asyncJob) state() (string, int64, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.ckptN, j.resp
}

// noteCkpt records a freshly journaled checkpoint so state transfer,
// the poll body and the SSE feed see live progress, not just replayed
// history. Entries run side by side, so an event often lands below
// events of later entries, and insertEventLocked keeps the history
// sorted; within one entry emission is past every recorded event
// (resumes start at the latest checkpoint). An entry restarted from
// cycle 0, because its checkpoint does not restore, emits events below
// ones already recorded, and insertEventLocked drops the duplicates.
// The abandoned checkpoint's event stays: clients may have seen it.
func (j *asyncJob) noteCkpt(entry int, c JobCheckpoint) {
	j.mu.Lock()
	if j.ckpts == nil {
		j.ckpts = make(map[int]JobCheckpoint)
	}
	j.ckpts[entry] = c
	j.ckptN++
	j.insertEventLocked(JobEvent{Entry: entry, Cycle: c.Cycle})
	j.sub.Broadcast()
	j.mu.Unlock()
}

// insertEventLocked adds one event preserving sorted order (append is
// the fast path; an event of an entry that runs beside a later one, or
// of a folded transferred history, is inserted). Duplicates are
// dropped.
func (j *asyncJob) insertEventLocked(e JobEvent) {
	n := len(j.events)
	if n == 0 || e.after(j.events[n-1]) {
		j.events = append(j.events, e)
		return
	}
	i := sort.Search(n, func(k int) bool { return !e.after(j.events[k]) })
	if i < n && j.events[i] == e {
		return
	}
	j.events = append(j.events, JobEvent{})
	copy(j.events[i+1:], j.events[i:])
	j.events[i] = e
}

// eventsAfterLocked copies the events a subscriber may see strictly
// after `after` (the zero cursor, Entry:-1, selects everything). Until
// the job is done those are the events of entries up to front only.
// Entries run side by side, so a later entry's events are recorded
// while an earlier one still adds events below them; a subscriber whose
// cursor had moved into the later entry would never get those. Hiding
// the later entries keeps every feed a prefix of the final history, so
// Last-Event-ID resume has no gap. A job this process has not run
// (replayed, adopted, queued or held as a replica) has front 0: hiding
// an event is always safe.
func (j *asyncJob) eventsAfterLocked(after JobEvent) []JobEvent {
	end := len(j.events)
	if j.status != JobDone {
		end = sort.Search(end, func(k int) bool { return j.events[k].Entry > j.front })
	}
	i := sort.Search(end, func(k int) bool { return j.events[k].after(after) })
	if i == end {
		return nil
	}
	return append([]JobEvent(nil), j.events[i:end]...)
}

// finishEntry marks batch entry i finished by this process's run and
// moves front past every finished entry, waking subscribers to the
// events that reveals.
func (j *asyncJob) finishEntry(i int) {
	j.mu.Lock()
	j.finished[i] = true
	j.entriesDone++
	for j.front < len(j.finished) && j.finished[j.front] {
		j.front++
	}
	j.sub.Broadcast()
	j.mu.Unlock()
}

// etaMSLocked estimates remaining wall time from per-entry progress:
// elapsed/entriesDone scaled by the entries left. 0 until the first
// entry completes (no basis for an estimate). Advisory only — it never
// appears in deterministic payloads.
func (j *asyncJob) etaMSLocked() int64 {
	if j.entriesDone == 0 || j.entries == 0 || j.started.IsZero() {
		return 0
	}
	elapsed := time.Since(j.started).Milliseconds()
	return elapsed * int64(j.entries-j.entriesDone) / int64(j.entriesDone)
}

// finishLocked marks the job done with its final response bytes. The
// job keeps each entry's latest checkpoint cycle (its progress, which
// the poll body and SSE events report) but drops the snapshot bytes: a
// finished job never resumes, so holding them would only grow memory
// with every job served. Called with j.mu held.
func (j *asyncJob) finishLocked(resp []byte) {
	j.status, j.resp = JobDone, resp
	for entry, c := range j.ckpts {
		j.ckpts[entry] = JobCheckpoint{Gen: c.Gen, Cycle: c.Cycle}
	}
}

// progressLocked sums the latest checkpointed cycle over entries — the
// deterministic cycles-completed figure events and leases report.
func (j *asyncJob) progressLocked() int64 {
	var p int64
	for _, c := range j.ckpts {
		p += c.Cycle
	}
	return p
}

// tenantQueue is one tenant's pending-job FIFO plus its deficit
// counter: credits accumulate by the tenant's weight each round-robin
// refill and one credit buys one job dispatch.
type tenantQueue struct {
	name    string
	weight  int
	jobs    []*asyncJob
	deficit int
}

// jobManager owns the journal and runs async jobs through a dispatcher
// pool over per-tenant queues. A dispatcher runs one job at a time, and
// the job's entries side by side on its session's worker pool. Crash
// recovery stays deterministic: each entry's checkpoint stream is
// self-consistent (one goroutine runs an entry) and every completed
// job's bytes are independent of when or where it ran.
type jobManager struct {
	srv     *Server
	journal *Journal

	// baseCtx parents every job run; stop cancels it so an in-flight
	// job aborts at the drain deadline (its journaled checkpoints keep
	// it resumable).
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*asyncJob
	closed bool
	wg     sync.WaitGroup

	// Deficit-round-robin state: the per-tenant queues, the tenants in
	// first-submit order, and the round-robin pointer into that ring.
	queues map[string]*tenantQueue
	ring   []string
	rr     int

	replayed     int64
	ckptsWritten atomic.Int64

	// Cluster wiring (zero/nil when the node runs solo). nodeID is this
	// node's cluster identity, leaseTTL the lease validity window, and
	// replicate the hook that pushes a job's latest state to its ring
	// successors (set by EnableCluster, never blocking the caller).
	nodeID    string
	leaseTTL  time.Duration
	replicate func(*asyncJob)
}

// clustered reports whether the job manager writes lease records.
func (jm *jobManager) clustered() bool { return jm.nodeID != "" }

// EnableJournal turns on crash-tolerant async batch jobs: it opens (or
// creates) the journal at path, replays it, re-queues every unfinished
// job, restores the per-tenant usage its done records carry, and starts
// the dispatcher pool. Finished jobs come back with their recorded
// responses and are served on GET without re-running. Must be called
// before the server starts handling requests; returns the number of
// jobs reconstructed from the journal.
func (s *Server) EnableJournal(path string) (replayed int, err error) {
	if s.jm != nil {
		return 0, errors.New("serve: journal already enabled")
	}
	j, jobs, err := OpenJournal(path)
	if err != nil {
		return 0, err
	}
	jm := &jobManager{
		srv:     s,
		journal: j,
		jobs:    make(map[string]*asyncJob, len(jobs)),
		queues:  make(map[string]*tenantQueue),
	}
	jm.cond = sync.NewCond(&jm.mu)
	jm.baseCtx, jm.cancel = context.WithCancel(context.Background())
	for _, rj := range jobs {
		aj := newAsyncJob(rj.ID, rj.Key, rj.Tenant)
		aj.body, aj.ckpts = rj.Body, rj.Ckpts
		aj.events = sortDedupEvents(rj.Events)
		aj.ckptN = int64(len(aj.events))
		switch {
		case rj.Resp != nil:
			aj.status, aj.resp = JobDone, rj.Resp
			if rj.Usage != nil {
				// The bugfix half of tenancy-through-crashes: a replayed
				// done record restores the usage it accrued, so counters
				// do not reset to zero on restart.
				s.tenants.add(rj.Usage.Tenant, rj.Usage.Jobs, rj.Usage.SimCycles, rj.Usage.QueueMS)
			}
		case !rj.Owned:
			// A replica (or a job handed off in a previous drain): hold
			// its state for peers, never run it here.
			aj.status, aj.replica = JobReplica, true
		default:
			aj.status = JobQueued
			jm.enqueueLocked(aj)
		}
		jm.jobs[aj.id] = aj
	}
	jm.replayed = int64(len(jobs))
	s.jm = jm
	jm.wg.Add(s.cfg.Dispatchers)
	for i := 0; i < s.cfg.Dispatchers; i++ {
		go jm.run()
	}
	return len(jobs), nil
}

// JournalReplayed reports how many jobs the journal reconstructed at
// startup (0 when journaling is off).
func (s *Server) JournalReplayed() int64 {
	if s.jm == nil {
		return 0
	}
	return s.jm.replayed
}

// CheckpointsWritten reports how many checkpoints have been journaled
// since startup (0 when journaling is off).
func (s *Server) CheckpointsWritten() int64 {
	if s.jm == nil {
		return 0
	}
	return s.jm.ckptsWritten.Load()
}

// enqueueLocked adds a queued job to its tenant's queue. Called with
// jm.mu held.
func (jm *jobManager) enqueueLocked(job *asyncJob) {
	job.mu.Lock()
	job.queuedAt = time.Now()
	job.mu.Unlock()
	q := jm.queues[job.tenant]
	if q == nil {
		q = &tenantQueue{name: job.tenant, weight: jm.srv.tenants.get(job.tenant).weight}
		jm.queues[job.tenant] = q
		jm.ring = append(jm.ring, job.tenant)
	}
	q.jobs = append(q.jobs, job)
}

// nextLocked pops the next job, nil when nothing is queued. Called with
// jm.mu held.
//
// Scheduling is deficit round-robin with unit job cost: the round-robin
// pointer rests on one tenant at a time; a tenant with credit and work
// dispatches (one credit per job) without moving the pointer, a tenant
// with no work forfeits its credit, and when a full pass dispatches
// nothing every backlogged tenant gains its weight in credits. Over any
// busy window each backlogged tenant therefore drains proportionally to
// its weight, within one job. A single tenant's queue drains in submit
// order.
func (jm *jobManager) nextLocked() *asyncJob {
	total := 0
	for _, q := range jm.queues {
		total += len(q.jobs)
	}
	if total == 0 {
		return nil
	}
	for {
		for pass := 0; pass < len(jm.ring); pass++ {
			q := jm.queues[jm.ring[jm.rr]]
			if len(q.jobs) == 0 {
				q.deficit = 0 // no banking credit while idle
				jm.rr = (jm.rr + 1) % len(jm.ring)
				continue
			}
			if q.deficit > 0 {
				q.deficit--
				job := q.jobs[0]
				q.jobs = q.jobs[1:]
				if len(q.jobs) == 0 {
					q.deficit = 0
				}
				return job
			}
			jm.rr = (jm.rr + 1) % len(jm.ring)
		}
		// A full pass dispatched nothing: refill backlogged tenants.
		for _, q := range jm.queues {
			if len(q.jobs) > 0 {
				q.deficit += q.weight
			}
		}
	}
}

// submit journals and enqueues a new job, or returns the existing one
// for a repeated idempotency key (first submission wins; the body and
// tenant of a resubmit are ignored).
func (jm *jobManager) submit(key, tenant string, body []byte) (*asyncJob, error) {
	id := JobID(key)
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if job, ok := jm.jobs[id]; ok {
		return job, nil
	}
	if jm.closed {
		return nil, errors.New("serve: server is draining; not accepting jobs")
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	// Journal before acknowledging: once the 202 goes out, the job must
	// survive any crash.
	if err := jm.journal.AppendSubmit(id, key, tenant, body); err != nil {
		return nil, err
	}
	job := newAsyncJob(id, key, tenant)
	job.body, job.status = body, JobQueued
	jm.jobs[id] = job
	jm.enqueueLocked(job)
	jm.cond.Signal()
	if jm.replicate != nil {
		// Push the submit body to the ring successors right away: a node
		// that dies before the first checkpoint still leaves its replicas
		// everything needed to run the job from scratch.
		jm.replicate(job)
	}
	return job, nil
}

// get looks a job up by id.
func (jm *jobManager) get(id string) *asyncJob {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.jobs[id]
}

// owns reports whether this node holds id as its owner — a locally
// submitted, claimed, or drain-adopted job, not a passive replica.
// Claims and handoffs move ownership without re-keying the hash ring,
// so reads of an owned job are answered locally instead of being
// forwarded to the (possibly dead) ring route owner.
func (jm *jobManager) owns(id string) bool {
	job := jm.get(id)
	if job == nil {
		return false
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	return !job.replica
}

// run is one dispatcher of the pool.
func (jm *jobManager) run() {
	defer jm.wg.Done()
	for {
		jm.mu.Lock()
		var job *asyncJob
		for {
			if jm.closed {
				// Leave queued jobs in the journal; the next startup
				// replays and re-queues them.
				jm.mu.Unlock()
				return
			}
			if job = jm.nextLocked(); job != nil {
				break
			}
			jm.cond.Wait()
		}
		jm.mu.Unlock()
		job.mu.Lock()
		if !job.queuedAt.IsZero() {
			job.queueMS += time.Since(job.queuedAt).Milliseconds()
			job.queuedAt = time.Time{}
		}
		job.status = JobRunning
		job.sub.Broadcast()
		job.mu.Unlock()
		jm.runJob(job)
	}
}

// startLease journals the run's lease and keeps renewing it on a
// heartbeat until the returned stop func is called. Peers learn the
// lease from ping gossip; the journal records are what make a restart
// of this node see the job as its own.
func (jm *jobManager) startLease(job *asyncJob) (stop func()) {
	if !jm.clustered() {
		return func() {}
	}
	_ = jm.journal.AppendLease(job.id, jm.nodeID, jm.leaseTTL)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(jm.leaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// Renewal failures (journal closing mid-drain) are not
				// fatal: the lease just stops renewing.
				_ = jm.journal.AppendLease(job.id, jm.nodeID, jm.leaseTTL)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// runJob executes one job end to end: parse, admit through the shared
// gate, run the batch entries side by side on the session's worker
// pool (runEntry), and journal the final response bytes plus the usage
// the job accrued. The entries share the job's one gate slot, as a
// sync batch's do.
func (jm *jobManager) runJob(job *asyncJob) {
	s := jm.srv
	stopLease := jm.startLease(job)
	defer stopLease()
	job.mu.Lock()
	body := job.body
	job.mu.Unlock()
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		jm.finish(job, encodeJSON(errorResponse{Error: "bad request body: " + err.Error()}), 0)
		return
	}
	scale, jobs, err := s.parseBatch(&req)
	if err != nil {
		jm.finish(job, encodeJSON(errorResponse{Error: err.Error()}), 0)
		return
	}
	job.mu.Lock()
	job.entries, job.entriesDone, job.started = len(jobs), 0, time.Now()
	job.finished, job.front = make([]bool, len(jobs)), 0
	job.mu.Unlock()

	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(jm.baseCtx, d)
	defer cancel()

	// AcquireWait: no deadline-aware shed for durable jobs — an aborted
	// job resumes from its checkpoints, so waiting beats rejection.
	release, err := s.gate.AcquireWait(ctx)
	if err != nil {
		jm.abortOrFail(job, err)
		return
	}
	defer release()

	sess := s.session(scale, req.Metrics)
	results := make([]*machine.Result, len(jobs))
	batchErr := sess.ForEach(ctx, len(jobs), func(i int) (err error) {
		results[i], err = jm.runEntry(ctx, job, sess, i, jobs[i])
		// A failed entry is finished too, unless the run's own abort
		// stopped it: it reruns when the job resumes, so more of its
		// events may come.
		if err == nil || ctx.Err() == nil {
			job.finishEntry(i)
		}
		return err
	})
	resp, err := buildBatchResponse(ctx, sess, scale, jobs, results, batchErr)
	if err != nil {
		jm.abortOrFail(job, err)
		return
	}
	// Mirror the sync path: an all-jobs-failed batch under a dead
	// context is a request-level failure, not a result.
	if resp.Failed == len(jobs) && batchErr != nil &&
		(errors.Is(batchErr, context.DeadlineExceeded) || errors.Is(batchErr, context.Canceled)) {
		jm.abortOrFail(job, batchErr)
		return
	}
	var simCycles int64
	for _, r := range results {
		if r != nil {
			simCycles += r.Cycles
		}
	}
	jm.finish(job, encodeJSON(resp), simCycles)
}

// runEntry runs batch entry i as a checkpointed simulation, resuming
// from its replayed checkpoint when there is one. Each checkpoint is
// journaled, recorded as an event and pushed to the ring successors
// before the run goes on.
func (jm *jobManager) runEntry(ctx context.Context, job *asyncJob, sess *core.Session, i int, e core.Job) (*machine.Result, error) {
	gen := 0 // the entry's restart generation
	ck := core.CheckpointConfig{
		Interval: jm.srv.cfg.CheckpointEvery,
		OnCheckpoint: func(cycle int64, snap []byte) error {
			c := JobCheckpoint{Gen: gen, Cycle: cycle, Snap: snap}
			if err := jm.journal.AppendCheckpoint(job.id, i, c); err != nil {
				return err
			}
			jm.ckptsWritten.Add(1)
			job.noteCkpt(i, c)
			if jm.replicate != nil {
				jm.replicate(job) // non-blocking push to ring successors
			}
			return nil
		},
	}
	job.mu.Lock()
	if c, ok := job.ckpts[i]; ok {
		ck.Resume, gen = c.Snap, c.Gen
	}
	job.mu.Unlock()
	res, err := sess.RunCheckpointedContext(ctx, e.App, e.Cfg, ck)
	if ck.Resume != nil && errors.Is(err, machine.ErrSnapshotMismatch) {
		// A checkpoint of another format or configuration: the run is
		// deterministic, so restarting it from cycle 0 yields the same
		// bytes. Its checkpoints start a new generation, so they
		// supersede the dead one on every replica.
		ck.Resume, gen = nil, gen+1
		res, err = sess.RunCheckpointedContext(ctx, e.App, e.Cfg, ck)
	}
	return res, err
}

// abortOrFail handles a job-level error. During shutdown the job is put
// back to queued and no done record is written — the journal has its
// submit (and any checkpoints), so the next startup resumes it. Any
// other failure is final: the error body becomes the job's response.
func (jm *jobManager) abortOrFail(job *asyncJob, err error) {
	if jm.baseCtx.Err() != nil {
		job.setStatus(JobQueued)
		return
	}
	jm.finish(job, encodeJSON(errorResponse{Error: err.Error()}), 0)
}

// finish records the job's final response and accounts its usage. The
// journal write comes first (carrying the usage delta, so a restart
// restores the counters); if it fails the in-memory result still serves
// this process's lifetime and the next startup re-runs the job
// (deterministically, to the same bytes).
func (jm *jobManager) finish(job *asyncJob, resp []byte, simCycles int64) {
	job.mu.Lock()
	queueMS := job.queueMS
	job.mu.Unlock()
	usage := &TenantUsage{Tenant: job.tenant, Jobs: 1, SimCycles: simCycles, QueueMS: queueMS}
	_ = jm.journal.AppendDone(job.id, resp, usage)
	jm.srv.tenants.add(job.tenant, 1, simCycles, queueMS)
	job.mu.Lock()
	job.finishLocked(resp)
	job.sub.Broadcast()
	job.mu.Unlock()
	if jm.replicate != nil {
		// Replicate the final bytes too: if this node dies right after
		// finishing, peers serve the recorded response verbatim instead
		// of re-running the job.
		jm.replicate(job)
	}
}

// stop drains the dispatchers and closes the journal — the solo-node
// shutdown path. Cluster shutdown runs stopDispatcher, hands owned
// leases off, and only then closes the journal (the handoff still
// appends release records).
func (jm *jobManager) stop(ctx context.Context) error {
	err := jm.stopDispatcher(ctx)
	if cerr := jm.closeJournal(); err == nil {
		err = cerr
	}
	return err
}

// stopDispatcher drains the dispatcher pool: no new jobs start and
// in-flight jobs get until ctx expires to finish (then their contexts
// are canceled and they stay resumable).
func (jm *jobManager) stopDispatcher(ctx context.Context) error {
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return nil
	}
	jm.closed = true
	jm.cond.Broadcast()
	jm.mu.Unlock()

	done := make(chan struct{})
	go func() {
		jm.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		jm.cancel()
		<-done
	}
	jm.cancel()
	return nil
}

// closeJournal flushes and closes the journal; further appends fail.
func (jm *jobManager) closeJournal() error {
	return jm.journal.Close()
}
