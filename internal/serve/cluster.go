package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mtsim/internal/cluster"
)

// Cluster mode: N mtsimd nodes behind one API. internal/cluster owns
// membership, the consistent-hash ring and the gossiped lease table;
// this file is the serving half — every HTTP surface of the protocol
// plus the journal/job-manager integration:
//
//   - forwarding: any node fronts the fleet; requests whose ring owner
//     is another alive node are proxied there with RetryDelay backoff
//     (sessions route by scale key, async jobs by job id);
//   - replication: an async job's owner pushes its submit body and
//     latest checkpoints to the job's ring successors over
//     PUT /v1/jobs/{id}/state, so the state survives the owner's disk;
//   - failover: when a dead node's lease expires, the next ring owner
//     claims the job — it gathers the freshest replica state from the
//     surviving peers (GET /v1/jobs/{id}/state), journals it as its
//     own, and resumes from the latest snapshot. Determinism makes the
//     re-run's response byte-identical to an uncrashed one.
//   - drain handoff: a gracefully stopping node pushes each owned
//     unfinished job to a live successor with ?claim=1 and journals a
//     release, so planned restarts migrate work without waiting for
//     lease expiry.

// forwardHeader marks a forwarded request so ring-view divergence can
// never bounce a request between nodes: a forwarded request is always
// handled locally.
const forwardHeader = "X-Mtsimd-Forward"

// forwardAttempts bounds the proxy retries before giving up with 503.
const forwardAttempts = 3

// clusterRuntime is the per-server cluster state.
type clusterRuntime struct {
	node *cluster.Node
	// fwd proxies client requests (no client timeout: the forwarded
	// request carries its own deadline); xfer moves job state between
	// nodes and probes peers for claims (bounded, background work).
	// Both share Config.Transport, so a chaos transport perturbs every
	// intra-cluster call.
	fwd  *http.Client
	xfer *http.Client

	// lat tracks forward latencies (hedge-delay source); budget paces
	// hedges. budget is nil when hedging is disabled.
	lat    *latencyTracker
	budget *hedgeBudget
	// chaos is the installed chaos transport, if any (stats surface).
	chaos *cluster.ChaosTransport

	forwards  atomic.Int64
	claims    atomic.Int64
	handoffs  atomic.Int64
	pushes    atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// EnableCluster joins this server to a multi-node fleet. It requires
// EnableJournal first (leases and replicas live in the journal) and
// must be called before serving starts. The returned node is already
// probing its peers.
func (s *Server) EnableCluster(cfg cluster.Config) (*cluster.Node, error) {
	if s.jm == nil {
		return nil, errors.New("serve: cluster mode requires EnableJournal first")
	}
	if s.cluster != nil {
		return nil, errors.New("serve: cluster already enabled")
	}
	node, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s.cluster = &clusterRuntime{
		node: node,
		fwd:  &http.Client{Transport: cfg.Transport},
		xfer: &http.Client{Timeout: 15 * time.Second, Transport: cfg.Transport},
		lat:  newLatencyTracker(hedgeDelayMin, hedgeDelayMax),
	}
	if s.cfg.HedgeFraction > 0 {
		s.cluster.budget = newHedgeBudget(s.cfg.HedgeFraction)
	}
	if ct, ok := cfg.Transport.(*cluster.ChaosTransport); ok {
		s.cluster.chaos = ct
	}
	s.jm.nodeID = node.Self()
	s.jm.leaseTTL = node.LeaseTTL()
	s.jm.replicate = s.replicateJob
	node.OnExpiredLease = s.claimExpiredLease
	node.Start()
	return node, nil
}

// ClusterForwards, ClusterClaims and ClusterHandoffs expose the fleet
// gauges (0 when cluster mode is off).
func (s *Server) ClusterForwards() int64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.forwards.Load()
}
func (s *Server) ClusterClaims() int64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.claims.Load()
}
func (s *Server) ClusterHandoffs() int64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.handoffs.Load()
}

// JobState is the wire form of one async job's transferable state: the
// replication payload, the claim fetch body, and the drain handoff. The
// snapshots inside are the same versioned CRC-framed machine snapshots
// the journal holds, so a resumed run is byte-identical wherever it
// lands.
type JobState struct {
	Schema int             `json:"schema"`
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Tenant string          `json:"tenant,omitempty"`
	Holder string          `json:"holder"`
	Body   json.RawMessage `json:"body"`
	Ckpts  []JobStateCkpt  `json:"ckpts,omitempty"`
	// Events is the job's complete checkpoint event history at push
	// time. Together with Ckpts (the latest snapshot per entry) every
	// push is a consistent cut: the receiver's history is dense up to
	// its freshest snapshot, so a failover successor's re-run
	// regenerates exactly the undelivered tail of the SSE sequence.
	Events []JobEvent `json:"events,omitempty"`
	// Resp is present once the job finished: replicas serve (and
	// claimants adopt) the recorded bytes verbatim. Base64 on the wire
	// (verbatimJSON): a json.RawMessage here would be compacted by the
	// push path's Marshal and re-indented by the state GET's renderer,
	// and an adopted response must not differ from the holder's by so
	// much as a byte of whitespace.
	Resp verbatimJSON `json:"resp,omitempty"`
	// Progress orders replicas of one restart generation by freshness:
	// the sum of the latest checkpointed cycle over batch entries
	// (monotone over a run).
	Progress int64 `json:"progress"`
	// Status mirrors the holder's view (queued/running/done).
	Status string `json:"status"`
}

// JobStateCkpt is one batch entry's latest checkpoint and its restart
// generation (JobCheckpoint). A finished job's entries carry only their
// generation and cycle: it holds no snapshots.
type JobStateCkpt struct {
	Entry int    `json:"entry"`
	Gen   int    `json:"gen,omitempty"`
	Cycle int64  `json:"cycle"`
	Snap  []byte `json:"snap,omitempty"`
}

// decodeJobState decodes a job state pushed to or fetched from a peer
// for job id. It rejects a state for another or no job, one without
// its submitted body (absent or null), and a negative entry or cycle
// in a checkpoint or event: such an event would be served as an SSE id
// that parseEventID rejects, so a client resuming from it would get a
// 400.
func decodeJobState(body []byte, id string) (*JobState, error) {
	var st JobState
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	switch {
	case st.ID == "" || st.ID != id:
		return nil, fmt.Errorf("state id %q does not match job id %q", st.ID, id)
	case len(st.Body) == 0 || string(st.Body) == "null":
		return nil, errors.New("job state needs a body")
	}
	for _, c := range st.Ckpts {
		if c.Entry < 0 || c.Gen < 0 || c.Cycle < 0 {
			return nil, fmt.Errorf("checkpoint of entry %d in generation %d at cycle %d is negative", c.Entry, c.Gen, c.Cycle)
		}
	}
	for _, e := range st.Events {
		if e.Entry < 0 || e.Cycle < 0 {
			return nil, fmt.Errorf("event of entry %d at cycle %d is negative", e.Entry, e.Cycle)
		}
	}
	return &st, nil
}

// fresher reports whether a carries more completed work than b: a
// finished job, else more restarts (a restart abandons a checkpoint
// that no longer restores, however far it got), else more cycles.
func fresher(a, b *JobState) bool {
	if b == nil {
		return a != nil
	}
	if a == nil {
		return false
	}
	if (a.Resp != nil) != (b.Resp != nil) {
		return a.Resp != nil
	}
	if ra, rb := a.restarts(), b.restarts(); ra != rb {
		return ra > rb
	}
	return a.Progress > b.Progress
}

// restarts sums the restart generations of st's checkpoints. Each
// entry's generation only grows, so the sum does too.
func (st *JobState) restarts() int {
	n := 0
	for _, c := range st.Ckpts {
		n += c.Gen
	}
	return n
}

// --- job-manager side -------------------------------------------------

// jobState snapshots one job's transferable state (nil if unknown).
func (jm *jobManager) jobState(id string) *JobState {
	jm.mu.Lock()
	job := jm.jobs[id]
	jm.mu.Unlock()
	if job == nil {
		return nil
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	st := &JobState{
		Schema: ResponseSchemaVersion,
		ID:     job.id, Key: job.key, Tenant: job.tenant, Holder: jm.nodeID,
		Body: job.body, Status: job.status,
		Events: append([]JobEvent(nil), job.events...),
	}
	for i, c := range job.ckpts {
		st.Ckpts = append(st.Ckpts, JobStateCkpt{Entry: i, Gen: c.Gen, Cycle: c.Cycle, Snap: c.Snap})
		st.Progress += c.Cycle
	}
	sort.Slice(st.Ckpts, func(i, j int) bool { return st.Ckpts[i].Entry < st.Ckpts[j].Entry })
	if job.status == JobDone {
		st.Resp = job.resp
	}
	return st
}

// leaseTable reports the jobs this node currently owns — the ping
// gossip payload peers base failover on.
func (jm *jobManager) leaseTable() []cluster.Lease {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	var out []cluster.Lease
	for _, job := range jm.jobs {
		job.mu.Lock()
		if !job.replica && job.status != JobDone {
			out = append(out, cluster.Lease{
				JobID: job.id, Holder: jm.nodeID, Tenant: job.tenant, Status: job.status,
				Checkpoint: job.checkpointsLocked(), TTLMS: jm.leaseTTL.Milliseconds(),
			})
		}
		job.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// ownedUnfinishedIDs lists the jobs a drain must hand off.
func (jm *jobManager) ownedUnfinishedIDs() []string {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	var ids []string
	for _, job := range jm.jobs {
		job.mu.Lock()
		if !job.replica && job.status != JobDone {
			ids = append(ids, job.id)
		}
		job.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

// storeReplica holds another node's job state for failover: what the
// state holds that the held copy lacks (holdLocked, foldStateLocked).
// Stale pushes (we own or finished the job) are ignored.
func (jm *jobManager) storeReplica(st *JobState) error {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed {
		return errors.New("serve: server is draining; not accepting replicas")
	}
	job, err := jm.holdLocked(st)
	if err != nil {
		return err
	}
	job.mu.Lock()
	stale := !job.replica || job.status == JobDone
	job.mu.Unlock()
	if stale {
		return nil
	}
	return jm.foldStateLocked(job, st)
}

// adoptOwned makes this node the job's owner. It takes the state as a
// replica would (holdLocked, foldStateLocked), then records a lease if
// the job is not yet this node's; apply then queues the job unless the
// state carried its final response. The lease comes last, so a failed
// append leaves the job a replica here, owned by no one on this node:
// the caller's retry, or the next peer a drain offers it to, can still
// take it over without two nodes running it. Used by failover claims
// and by the receiving side of a drain handoff.
func (jm *jobManager) adoptOwned(st *JobState) error {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed {
		return errors.New("serve: server is draining; not adopting jobs")
	}
	job, err := jm.holdLocked(st)
	if err != nil {
		return err
	}
	job.mu.Lock()
	done, owned := job.status == JobDone, !job.replica
	job.mu.Unlock()
	if done {
		return nil
	}
	if err := jm.foldStateLocked(job, st); err != nil {
		return err
	}
	if owned {
		return nil
	}
	_, err = jm.record(journalRecord{Kind: recLease, ID: st.ID, Node: jm.nodeID})
	return err
}

// holdLocked returns the job st is the state of, first recording a
// replica submit for a job this node holds no copy of. Called with
// jm.mu held.
func (jm *jobManager) holdLocked(st *JobState) (*asyncJob, error) {
	if job := jm.jobs[st.ID]; job != nil {
		return job, nil
	}
	return jm.record(journalRecord{Kind: recSubmit, ID: st.ID, Key: st.Key, Tenant: st.Tenant, Body: st.Body, Role: roleReplica})
}

// release demotes a handed-off job to a replica after a drain push. A
// failed append leaves the job this node's: a restart runs it again, to
// the same bytes as the claimant's run.
func (jm *jobManager) release(id string) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	_, _ = jm.record(journalRecord{Kind: recRelease, ID: id, Node: jm.nodeID})
}

// foldStateLocked journals and applies what a transferred job state
// holds that job lacks: each checkpoint that supersedes the one held for
// its entry, each event this node never saw, and the final response. A
// checkpoint supersedes the held one if it is of a later restart
// generation, or of the same one at a higher cycle: an entry rerun from
// cycle 0, because its checkpoint no longer restores, replaces the dead
// high-cycle checkpoint, while a push that arrives late, or one from a
// former holder, cannot move a resume point back. Unseen events go in as
// snapless checkpoint records — progress marks, not resume points — so
// the SSE history a failover successor serves is the complete
// deterministic sequence with no gaps. The final response comes after
// every event, so no subscriber sees the job done before its history is
// whole, and carries no usage: the node that ran the job accounted it,
// and this copy must not count it again on replay. A finished state's
// checkpoints hold no snapshots; recorded after the response, they move
// each entry's generation and cycle, so the job's progress is the
// holder's. A failed append stops the fold, and the job keeps what was
// recorded before it: a replica stays one, since adoptOwned records its
// lease only after a whole fold, and an owned job resumes from the older
// state, to the same bytes. Called with jm.mu held.
func (jm *jobManager) foldStateLocked(job *asyncJob, st *JobState) error {
	job.mu.Lock()
	have := make(map[JobEvent]bool, len(job.events))
	for _, e := range job.events {
		have[e] = true
	}
	var recs, marks []journalRecord
	for _, sc := range st.Ckpts {
		c := JobCheckpoint{Gen: sc.Gen, Cycle: sc.Cycle, Snap: sc.Snap}
		if cur, held := job.ckpts[sc.Entry]; held && !c.supersedes(cur) {
			continue
		}
		rec := journalRecord{Kind: recCkpt, ID: st.ID, Job: sc.Entry, Gen: c.Gen, Cycle: c.Cycle, Snap: c.Snap}
		if len(c.Snap) > 0 {
			recs = append(recs, rec)
			have[JobEvent{Entry: sc.Entry, Cycle: sc.Cycle}] = true
		} else if st.Resp != nil {
			marks = append(marks, rec)
		}
	}
	for _, e := range st.Events {
		if !have[e] {
			have[e] = true
			recs = append(recs, journalRecord{Kind: recCkpt, ID: st.ID, Job: e.Entry, Cycle: e.Cycle})
		}
	}
	job.mu.Unlock()
	if st.Resp != nil {
		recs = append(recs, journalRecord{Kind: recDone, ID: st.ID, Resp: st.Resp})
	}
	for _, rec := range append(recs, marks...) {
		if _, err := jm.record(rec); err != nil {
			return err
		}
	}
	return nil
}

// --- replication ------------------------------------------------------

// replicateJob pushes the job's latest state to its ring successors.
// Never blocks the simulation: one push runs at a time per job and the
// state is captured at send time, so the next checkpoint's call picks
// up anything a skipped push missed.
func (s *Server) replicateJob(job *asyncJob) {
	if s.cluster == nil {
		return
	}
	if !job.replBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer job.replBusy.Store(false)
		s.pushReplica(job.id, false)
	}()
}

// pushReplica sends the job's current state to every ring successor
// (skipping self). Best-effort: a dead replica target just means less
// redundancy until the membership layer notices.
func (s *Server) pushReplica(id string, claim bool) {
	st := s.jm.jobState(id)
	if st == nil {
		return
	}
	node := s.cluster.node
	for _, p := range node.Successors(cluster.JobRouteKey(id), node.Replicas()) {
		if p.ID == node.Self() {
			continue
		}
		if b := node.Breaker(p.ID); b != nil && !b.Allow() {
			continue // circuit open: the push would only burn a timeout
		}
		_ = s.putJobState(context.Background(), p, st, claim)
	}
}

// putJobState PUTs one job state to a peer, feeding the transport
// outcome to the peer's circuit breaker.
func (s *Server) putJobState(ctx context.Context, p cluster.Peer, st *JobState, claim bool) error {
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	url := p.URL + "/v1/jobs/" + st.ID + "/state"
	if claim {
		url += "?claim=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cluster.xfer.Do(req)
	if ctx.Err() == nil {
		s.cluster.node.ReportPeer(p.ID, err == nil)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("serve: push job state to %s: status %d", p.URL, resp.StatusCode)
	}
	s.cluster.pushes.Add(1)
	return nil
}

// --- failover claim ---------------------------------------------------

// claimExpiredLease is the cluster.Node hook: a dead peer's lease has
// expired and this node is the job's route owner. Gather the freshest
// surviving state (local replica or any alive peer's), adopt it, and
// resume. DropLease ends the claim; returning without it retries next
// probe round.
func (s *Server) claimExpiredLease(l cluster.Lease) {
	node := s.cluster.node
	best := s.jm.jobState(l.JobID)
	for _, m := range node.Members() {
		if m.Self || m.State != cluster.StateAlive {
			continue
		}
		st, err := s.fetchJobState(cluster.Peer{ID: m.ID, URL: m.URL}, l.JobID)
		if err != nil || st == nil {
			continue
		}
		if fresher(st, best) {
			best = st
		}
	}
	if best == nil {
		// No surviving copy anywhere: the job cannot be recovered until
		// its holder rejoins with its journal. Stop claiming it.
		node.DropLease(l.JobID)
		return
	}
	if err := s.jm.adoptOwned(best); err != nil {
		return // draining or journal trouble; retry next round
	}
	s.cluster.claims.Add(1)
	node.DropLease(l.JobID)
}

// fetchJobState GETs a peer's copy of one job's state (nil if the peer
// does not hold it). A body that fails to decode counts as a transport
// failure for the peer's breaker: a chaos-corrupted reply must neither
// win a freshness contest nor pass as healthy contact.
func (s *Server) fetchJobState(p cluster.Peer, id string) (*JobState, error) {
	req, err := http.NewRequest(http.MethodGet, p.URL+"/v1/jobs/"+id+"/state", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.cluster.xfer.Do(req)
	if err != nil {
		s.cluster.node.ReportPeer(p.ID, false)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		s.cluster.node.ReportPeer(p.ID, false)
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		s.cluster.node.ReportPeer(p.ID, true)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		s.cluster.node.ReportPeer(p.ID, true)
		return nil, fmt.Errorf("serve: fetch job state: status %d", resp.StatusCode)
	}
	st, err := decodeJobState(body, id)
	if err != nil {
		s.cluster.node.ReportPeer(p.ID, false)
		return nil, fmt.Errorf("serve: fetch job state: %w", err)
	}
	s.cluster.node.ReportPeer(p.ID, true)
	return st, nil
}

// --- drain handoff ----------------------------------------------------

// handoffLeases migrates every owned unfinished job to a live ring
// successor during graceful shutdown: push with ?claim=1 (the receiver
// adopts and queues it), then journal our release. Jobs with no live
// successor stay owned and resume when this node restarts.
func (s *Server) handoffLeases(ctx context.Context) {
	node := s.cluster.node
	for _, id := range s.jm.ownedUnfinishedIDs() {
		if ctx.Err() != nil {
			return
		}
		// Candidate receivers in ring order, alive-looking nodes first.
		// The health view is frozen at this point (the prober stopped),
		// so a stale suspect must not block the drain: pushing to a
		// truly dead node just fails fast and we try the next.
		var live, iffy []cluster.Peer
		for _, p := range node.Successors(cluster.JobRouteKey(id), 1<<30) {
			if p.ID == node.Self() {
				continue
			}
			if node.Alive(p.ID) {
				live = append(live, p)
			} else {
				iffy = append(iffy, p)
			}
		}
		st := s.jm.jobState(id)
		if st == nil {
			continue
		}
		for _, p := range append(live, iffy...) {
			if err := s.putJobState(ctx, p, st, true); err != nil {
				continue // keep trying; worst case ownership stays here
			}
			s.jm.release(id)
			s.cluster.handoffs.Add(1)
			break
		}
	}
}

// --- forwarding -------------------------------------------------------

// forwardIfRemote proxies the request to key's route owner when that is
// another node, reporting whether it handled the request. Forwarded
// requests (marker header) are always served locally, so divergent ring
// views degrade to an extra hop, never a loop. Idempotent reads (GETs,
// minus SSE streams) go through the hedged path; everything else
// retries candidates sequentially with backoff.
func (s *Server) forwardIfRemote(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.cluster == nil || r.Header.Get(forwardHeader) != "" {
		return false
	}
	node := s.cluster.node
	owner := node.RouteOwner(key)
	if owner == node.Self() {
		return false
	}
	cands := s.forwardCandidates(key)
	if len(cands) == 0 {
		// Every remote candidate looks down or breaker-tripped; the
		// route owner (RouteOwner already fell back past tripped
		// breakers) is the least-bad single bet.
		url, ok := node.PeerURL(owner)
		if !ok {
			return false
		}
		cands = []cluster.Peer{{ID: owner, URL: url}}
	}
	if r.Method == http.MethodGet && !strings.HasSuffix(r.URL.Path, "/events") && s.cluster.budget != nil {
		s.hedgedForward(w, r, cands, body)
	} else {
		s.forwardTo(w, r, cands, body)
	}
	return true
}

// forwardCandidates lists the remote peers a forwarded request for key
// may be sent to, in ring order: alive, circuit not hard-open, capped
// at three (the owner plus two fallbacks).
func (s *Server) forwardCandidates(key string) []cluster.Peer {
	node := s.cluster.node
	var out []cluster.Peer
	for _, p := range node.Successors(key, 1<<30) {
		if p.ID == node.Self() || !node.Alive(p.ID) {
			continue
		}
		if b := node.Breaker(p.ID); b != nil && b.Tripped() {
			continue
		}
		if out = append(out, p); len(out) == 3 {
			break
		}
	}
	return out
}

// forwardResult is one forwarded response: buffered for ordinary
// bodies (so a chaos-corrupted reply is caught before any byte reaches
// the client), streaming for SSE.
type forwardResult struct {
	resp   *http.Response
	body   []byte        // buffered body (stream == nil)
	stream io.ReadCloser // non-nil for SSE relays
}

// forwardOnce sends one forwarded copy of r to peer. JSON bodies are
// buffered and validated: a reply that fails json.Valid is a transport
// failure (corrupt wire data), not an application response.
func (s *Server) forwardOnce(ctx context.Context, r *http.Request, peer cluster.Peer, body []byte) (*forwardResult, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, peer.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	// Authorization / X-Tenant-ID keep the tenant identity across the
	// hop (the forward marker suppresses a second quota charge);
	// Last-Event-ID keeps SSE resume cursors working through a proxy.
	for _, h := range []string{"Content-Type", "Idempotency-Key", "Accept",
		"Authorization", "X-Tenant-ID", "Last-Event-ID"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(forwardHeader, s.cluster.node.Self())
	resp, err := s.cluster.fwd.Do(req)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return &forwardResult{resp: resp, stream: resp.Body}, nil
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") && len(buf) > 0 && !json.Valid(buf) {
		return nil, fmt.Errorf("serve: corrupt reply from %s", peer.ID)
	}
	return &forwardResult{resp: resp, body: buf}, nil
}

// relayForwardResult writes a forwarded response to the client.
func (s *Server) relayForwardResult(w http.ResponseWriter, res *forwardResult) {
	resp := res.resp
	for _, h := range []string{"Content-Type", "Retry-After", "Cache-Control", "X-Accel-Buffering"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if res.stream != nil {
		// SSE: relay each chunk as it arrives instead of buffering the
		// whole (unbounded) stream.
		defer res.stream.Close()
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 4096)
		for {
			n, rerr := res.stream.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					break
				}
				if fl != nil {
					fl.Flush()
				}
			}
			if rerr != nil {
				break
			}
		}
		return
	}
	_, _ = w.Write(res.body)
}

// forwardTo proxies one request over the candidate peers with
// RetryDelay backoff between transport failures, feeding each
// attempt's outcome to the peer's circuit breaker. The backoff select
// watches the caller's context, so a canceled client stops burning
// attempts against a dead peer. When every candidate stays
// unreachable the client gets a 503 with a jittered Retry-After (the
// membership layer will route around the dead node shortly).
func (s *Server) forwardTo(w http.ResponseWriter, r *http.Request, cands []cluster.Peer, body []byte) {
	node := s.cluster.node
	var res *forwardResult
	var err error
	ci := 0
	for attempt := 0; attempt < forwardAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-r.Context().Done():
				s.v2HTTPError(w, r.Context().Err())
				return
			case <-time.After(RetryDelay(attempt-1, 100*time.Millisecond)):
			}
		}
		p := cands[ci%len(cands)]
		ci++
		if b := node.Breaker(p.ID); b != nil && !b.Allow() {
			err = fmt.Errorf("serve: breaker open for peer %s", p.ID)
			continue
		}
		start := time.Now()
		res, err = s.forwardOnce(r.Context(), r, p, body)
		if err != nil && r.Context().Err() != nil {
			// The caller is gone; the failure says nothing about the peer.
			s.v2HTTPError(w, r.Context().Err())
			return
		}
		node.ReportPeer(p.ID, err == nil)
		if err == nil {
			s.cluster.lat.observe(time.Since(start))
			break
		}
	}
	if err != nil {
		s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, "forwarding to cluster owner failed: "+err.Error())
		return
	}
	s.relayForwardResult(w, res)
	s.cluster.forwards.Add(1)
}

// --- HTTP handlers ----------------------------------------------------
//
// Peers read only the status codes of these routes; their error bodies
// are the client API's envelope all the same.

// soloMsg is the 404 message of a cluster route on a solo server.
const soloMsg = "cluster mode disabled: server runs solo"

// ClusterStatus is the GET /v1/cluster body: fleet topology, per-node
// health and the merged lease table.
type ClusterStatus struct {
	Schema   int              `json:"schema"`
	Self     string           `json:"self"`
	Nodes    []cluster.Member `json:"nodes"`
	Leases   []cluster.Lease  `json:"leases"`
	Usage    []TenantUsage    `json:"usage,omitempty"`
	Claims   int64            `json:"claims"`
	Forwards int64            `json:"forwards"`
	Handoffs int64            `json:"handoffs"`
	// Breakers is each remote peer's circuit state as this node sees it.
	Breakers []cluster.BreakerStatus `json:"breakers,omitempty"`
	// Hedges/HedgeWins count hedged forwarded reads and the ones where
	// the hedge answered first.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Chaos reports injected-fault counters when this node runs with a
	// chaos transport installed.
	Chaos *cluster.ChaosStats `json:"chaos,omitempty"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, soloMsg)
		return
	}
	node := s.cluster.node
	merged := make(map[string]cluster.Lease)
	for _, l := range node.RemoteLeases() {
		merged[l.JobID] = l
	}
	for _, l := range s.jm.leaseTable() {
		merged[l.JobID] = l // the local view of a job we own wins
	}
	leases := make([]cluster.Lease, 0, len(merged))
	for _, l := range merged {
		leases = append(leases, l)
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].JobID < leases[j].JobID })
	status := &ClusterStatus{
		Schema:    ResponseSchemaVersion,
		Self:      node.Self(),
		Nodes:     node.Members(),
		Leases:    leases,
		Usage:     mergeUsage(s.tenants.table(), node.RemoteUsage()),
		Claims:    s.cluster.claims.Load(),
		Forwards:  s.cluster.forwards.Load(),
		Handoffs:  s.cluster.handoffs.Load(),
		Breakers:  node.BreakerStates(),
		Hedges:    s.cluster.hedges.Load(),
		HedgeWins: s.cluster.hedgeWins.Load(),
	}
	if s.cluster.chaos != nil {
		st := s.cluster.chaos.Stats()
		status.Chaos = &st
	}
	writeJSON(w, http.StatusOK, status)
}

// handleClusterPing answers the membership probe: identity + owned
// leases. Internal (node-to-node), but safe to expose.
func (s *Server) handleClusterPing(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, soloMsg)
		return
	}
	leases := s.jm.leaseTable()
	if leases == nil {
		leases = []cluster.Lease{}
	}
	writeJSON(w, http.StatusOK, &cluster.PingResponse{
		NodeID: s.cluster.node.Self(),
		Leases: leases,
		Usage:  s.tenants.table(),
	})
}

// handleJobStateGet serves this node's copy of a job's state (owner or
// replica) for claims and handoffs.
func (s *Server) handleJobStateGet(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil || s.jm == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, soloMsg)
		return
	}
	st := s.jm.jobState(r.PathValue("id"))
	if st == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, "job state not held here")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobStatePut ingests a pushed job state: a replica copy by
// default, an ownership transfer with ?claim=1 (drain handoff).
func (s *Server) handleJobStatePut(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil || s.jm == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, soloMsg)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	st, err := decodeJobState(body, r.PathValue("id"))
	if err != nil {
		s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, "bad job state: "+err.Error())
		return
	}
	if r.URL.Query().Get("claim") == "1" {
		if err := s.jm.adoptOwned(st); err != nil {
			s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, err.Error())
			return
		}
	} else {
		if err := s.jm.storeReplica(st); err != nil {
			s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, err.Error())
			return
		}
		// Replica pushes double as lease knowledge: even if the owner
		// dies before its first gossip, its replicas can arm failover.
		s.cluster.node.NoteLease(cluster.Lease{
			JobID: st.ID, Holder: st.Holder, Status: st.Status, Checkpoint: st.Progress,
		})
	}
	w.WriteHeader(http.StatusNoContent)
}
