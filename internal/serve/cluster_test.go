package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mtsim/internal/cluster"
)

// The in-process cluster tests: real HTTP between real Servers on
// loopback ports, fast heartbeats. The process-kill version of failover
// lives in chaostest; here each mechanism (forwarding, replication,
// claim, drain handoff) is exercised in isolation.

// testClusterCfg builds a fast-heartbeat cluster config.
func testClusterCfg(self string, peers []cluster.Peer) cluster.Config {
	return cluster.Config{
		Self:           self,
		Peers:          peers,
		HeartbeatEvery: 25 * time.Millisecond,
		// Generous suspicion windows and probe timeout: these tests run
		// CPU-heavy simulations under the race detector, and a starved
		// ping handler must not flap a healthy peer to suspect.
		SuspectAfter: 250 * time.Millisecond,
		DeadAfter:    500 * time.Millisecond,
		LeaseTTL:     400 * time.Millisecond,
		Client:       &http.Client{Timeout: time.Second},
	}
}

// freeLoopbackAddr reserves a loopback port and returns host:port.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// clusterNode is one in-process fleet member.
type clusterNode struct {
	s   *Server
	url string
}

// startClusterNode builds a journaling, clustered Server and serves it
// on addr. Shutdown runs at cleanup (idempotent if the test already
// shut it down).
func startClusterNode(t *testing.T, id, addr string, peers []cluster.Peer) *clusterNode {
	t.Helper()
	s := New(Config{CheckpointEvery: 100_000})
	if _, err := s.EnableJournal(filepath.Join(t.TempDir(), "wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableCluster(testClusterCfg(id, peers)); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ListenAndServe(addr) }()
	n := &clusterNode{s: s, url: "http://" + addr}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	waitHTTPReady(t, n.url)
	return n
}

// waitHTTPReady polls /v2/healthz until the node answers.
func waitHTTPReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v2/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node at %s never became ready", url)
}

// ringOwner computes which configured node owns key (all-alive view),
// using a probe Node that is never started.
func ringOwner(t *testing.T, peers []cluster.Peer, key string) string {
	t.Helper()
	probe, err := cluster.New(testClusterCfg(peers[0].ID, peers))
	if err != nil {
		t.Fatal(err)
	}
	return probe.RouteOwner(key)
}

// keyOwnedBy searches for an idempotency key whose job routes to owner.
func keyOwnedBy(t *testing.T, peers []cluster.Peer, owner string) string {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		key := fmt.Sprintf("cluster-key-%d", i)
		if ringOwner(t, peers, cluster.JobRouteKey(JobID(key))) == owner {
			return key
		}
	}
	t.Fatal("no key routed to " + owner)
	return ""
}

// pollJobAt polls one URL until the job is done and returns its result
// document, tolerating the transient replies of a failover.
func pollJobAt(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	lastStatus, lastBody := 0, []byte(nil)
	for time.Now().Before(deadline) {
		status, job, body := getJob(t, baseURL, id)
		lastStatus, lastBody = status, body
		if status == http.StatusOK && job.Status == JobDone {
			return job.Result
		}
		switch status {
		case http.StatusOK, http.StatusServiceUnavailable, http.StatusNotFound:
			// 503/404 are transient during failover: the ring still
			// points at the dying node, or the claim has not landed yet.
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("poll %s at %s: status %d: %s", id, baseURL, status, body)
		}
	}
	t.Fatalf("job %s did not finish in time (last status %d: %s)", id, lastStatus, lastBody)
	return nil
}

// clusterStatusAt fetches GET /v1/cluster.
func clusterStatusAt(t *testing.T, baseURL string) *ClusterStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", resp.StatusCode)
	}
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	return &cs
}

// TestClusterForwarding: a job submitted to the wrong node is proxied
// to its ring owner, polls from any node reach it, and the final bytes
// match a solo server's sync run of the same batch.
func TestClusterForwarding(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation test")
	}
	addr1, addr2 := freeLoopbackAddr(t), freeLoopbackAddr(t)
	peers := []cluster.Peer{
		{ID: "node1", URL: "http://" + addr1},
		{ID: "node2", URL: "http://" + addr2},
	}
	n1 := startClusterNode(t, "node1", addr1, peers)
	n2 := startClusterNode(t, "node2", addr2, peers)

	// Reference bytes from a plain solo server (separate session cache).
	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", asyncBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}

	// Submit to node1 a job that node2 owns: must forward, not run here.
	key := keyOwnedBy(t, peers, "node2")
	status, body := postBatch(t, n1.url, key, asyncBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var ack V2Job
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.JobID != JobID(key) {
		t.Fatalf("ack job id %s, want %s", ack.JobID, JobID(key))
	}
	if ack.RetryAfterMS <= 0 {
		t.Errorf("202 ack carries no retry_after_ms hint: %+v", ack)
	}
	if n1.s.ClusterForwards() == 0 {
		t.Error("submission to the non-owner did not count a forward")
	}
	if n2.s.jm.get(ack.JobID) == nil {
		t.Fatal("job not registered on its ring owner")
	}

	// Both nodes serve the identical final bytes (node1 via forwarding).
	got1 := pollJobAt(t, n1.url, ack.JobID)
	got2 := pollJobAt(t, n2.url, ack.JobID)
	if !bytes.Equal(got1, ref) || !bytes.Equal(got2, ref) {
		t.Errorf("forwarded job response differs from the solo run\nnode1: %s\nnode2: %s\nref: %s", got1, got2, ref)
	}

	// Topology: both nodes alive from either view.
	cs := clusterStatusAt(t, n1.url)
	if cs.Self != "node1" || len(cs.Nodes) != 2 {
		t.Fatalf("cluster status: %+v", cs)
	}
	for _, m := range cs.Nodes {
		if m.State != cluster.StateAlive {
			t.Errorf("node %s state %s, want alive", m.ID, m.State)
		}
	}
}

// TestClusterFailoverClaim: a replica-push from a holder that then dies
// must be claimed by the survivor once the lease expires, re-run from
// the transferred state, and served with bytes identical to a solo run.
func TestClusterFailoverClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation test")
	}
	addrB := freeLoopbackAddr(t)
	deadAddr := freeLoopbackAddr(t) // nodeA never starts: dead on arrival
	peers := []cluster.Peer{
		{ID: "nodeA", URL: "http://" + deadAddr},
		{ID: "nodeB", URL: "http://" + addrB},
	}
	nb := startClusterNode(t, "nodeB", addrB, peers)

	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", asyncBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d", refStatus)
	}

	// nodeA's replica push: the job state lands on nodeB before "nodeA"
	// ever gossips a lease (it is already dead).
	key := "failover-key"
	id := JobID(key)
	putJobStateAt(t, nb.url, &JobState{
		Schema: ResponseSchemaVersion, ID: id, Key: key,
		Holder: "nodeA", Body: json.RawMessage(asyncBatchBody), Status: JobQueued,
	})

	// The replica is visible but must not run while it is only a copy.
	if job := nb.s.jm.get(id); job == nil {
		t.Fatal("replica not registered")
	}

	// Once nodeA is declared dead and the lease expires, nodeB claims,
	// re-runs deterministically, and serves the canonical bytes.
	got := pollJobAt(t, nb.url, id)
	if !bytes.Equal(got, ref) {
		t.Errorf("failover response differs from the solo run\ngot: %s\nref: %s", got, ref)
	}
	if nb.s.ClusterClaims() == 0 {
		t.Error("no claim counted after the holder died")
	}
	cs := clusterStatusAt(t, nb.url)
	var sawDead bool
	for _, m := range cs.Nodes {
		if m.ID == "nodeA" && m.State == cluster.StateDead {
			sawDead = true
		}
	}
	if !sawDead {
		t.Errorf("cluster status does not report nodeA dead: %+v", cs.Nodes)
	}
}

// TestClusterDrainHandoff: a graceful shutdown pushes the owned
// unfinished job to the surviving node, which finishes it and serves
// bytes identical to a solo run.
func TestClusterDrainHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation test")
	}
	addr1, addr2 := freeLoopbackAddr(t), freeLoopbackAddr(t)
	peers := []cluster.Peer{
		{ID: "node1", URL: "http://" + addr1},
		{ID: "node2", URL: "http://" + addr2},
	}
	n1 := startClusterNode(t, "node1", addr1, peers)
	n2 := startClusterNode(t, "node2", addr2, peers)

	// The drained job must still be unfinished when Shutdown runs, and
	// the only thing between the 202 and the Shutdown call is this test
	// goroutine getting scheduled — under a loaded machine that gap can
	// exceed the ~2ms a JIT-compiled quick sieve takes. Use a batch big
	// enough (distinct latencies, so the session memo cannot collapse
	// it) that finishing inside the gap is impossible; the drain cancels
	// it immediately, so the extra work is only paid by the reference
	// run and by node2 after the handoff.
	var sb strings.Builder
	sb.WriteString(`{"scale":"quick","jobs":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use","latency":%d}}`, 100+i)
	}
	sb.WriteString(`]}`)
	drainBatchBody := sb.String()

	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", drainBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d", refStatus)
	}

	// Submit a job node1 owns, then drain node1 before it can finish.
	key := keyOwnedBy(t, peers, "node1")
	status, body := postBatch(t, n1.url, key, drainBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	id := JobID(key)
	// Drain with a spent context: the in-flight run is canceled at once
	// (no window for the job to finish and dodge the handoff) and the
	// handoff must proceed on its own grace context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = n1.s.Shutdown(ctx)

	if n1.s.ClusterHandoffs() == 0 {
		t.Fatal("drain did not hand the unfinished job off")
	}
	got := pollJobAt(t, n2.url, id)
	if !bytes.Equal(got, ref) {
		t.Errorf("handed-off job response differs from the solo run\ngot: %s\nref: %s", got, ref)
	}
}

// TestEnableClusterRequiresJournal: cluster mode without a journal has
// nowhere to put leases and must be refused.
func TestEnableClusterRequiresJournal(t *testing.T) {
	s := New(Config{})
	_, err := s.EnableCluster(testClusterCfg("node1", []cluster.Peer{
		{ID: "node1", URL: "http://127.0.0.1:1"},
		{ID: "node2", URL: "http://127.0.0.1:2"},
	}))
	if err == nil || !strings.Contains(err.Error(), "Journal") {
		t.Fatalf("EnableCluster without journal: err = %v, want journal requirement", err)
	}
}

// TestJobStatePutRejectsBadState: a pushed job state that no running
// job could have produced is a 400, and the node holds no job for it.
// A negative event would otherwise be journaled and served as an SSE
// id that parseEventID rejects, so a client resuming from it would get
// a 400 of its own.
func TestJobStatePutRejectsBadState(t *testing.T) {
	addrB := freeLoopbackAddr(t)
	peers := []cluster.Peer{
		{ID: "nodeA", URL: "http://" + freeLoopbackAddr(t)},
		{ID: "nodeB", URL: "http://" + addrB},
	}
	nb := startClusterNode(t, "nodeB", addrB, peers)
	id := JobID("bad-state")
	for name, mutate := range map[string]func(*JobState){
		"negative event":      func(st *JobState) { st.Events = []JobEvent{{Entry: -1, Cycle: -5}, {Entry: 0, Cycle: -9}} },
		"negative checkpoint": func(st *JobState) { st.Ckpts = []JobStateCkpt{{Entry: -3, Cycle: 100}} },
		"negative generation": func(st *JobState) { st.Ckpts = []JobStateCkpt{{Entry: 0, Gen: -1, Cycle: 100}} },
		"other id":            func(st *JobState) { st.ID = JobID("other") },
		"no body":             func(st *JobState) { st.Body = nil },
	} {
		st := JobState{
			Schema: ResponseSchemaVersion, ID: id, Key: "bad-state",
			Holder: "nodeA", Body: json.RawMessage(asyncBatchBody), Status: JobQueued,
		}
		mutate(&st)
		payload, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, nb.url+"/v1/jobs/"+id+"/state", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope(t, body).Code != v2CodeBadRequest {
			t.Errorf("%s: status %d %s, want 400 bad_request", name, resp.StatusCode, body)
		}
	}
	if nb.s.jm.get(id) != nil {
		t.Error("a rejected job state registered its job")
	}
}

// FuzzJobState: decodeJobState, the one decoder of the job states
// peers push and serve, never panics, and every state it accepts is
// for the job asked about, carries a body, and can be served: each
// event's SSE id parses back to the event, and each checkpoint's entry
// and cycle are non-negative.
func FuzzJobState(f *testing.F) {
	const id = "b-x"
	for _, seed := range []string{
		`{"schema":1,"id":"b-x","key":"k","holder":"n1","body":{"jobs":[]},"ckpts":[{"entry":0,"cycle":100,"snap":"TVRTTg=="}],"events":[{"entry":0,"cycle":100}],"progress":100,"status":"running"}`,
		`{"schema":1,"id":"b-x","body":{},"events":[{"entry":-1,"cycle":-5},{"entry":0,"cycle":-9}]}`,
		`{"schema":1,"id":"b-x","body":{},"ckpts":[{"entry":-3,"cycle":0}]}`,
		`{"id":"b-y","body":{}}`,
		`{"id":"b-x"}`,
		`{"id":"b-x","body":null}`,
		`{"id":"b-x","body":{},"resp":"eyJvayI6dHJ1ZX0=","status":"done"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := decodeJobState(body, id)
		if err != nil {
			return
		}
		if st.ID != id || len(st.Body) == 0 || string(st.Body) == "null" {
			t.Fatalf("accepted a state of job %q with a %d-byte body", st.ID, len(st.Body))
		}
		for _, e := range st.Events {
			if back, ok := parseEventID(e.ID()); !ok || back != e {
				t.Fatalf("accepted event %+v, whose id %q parses to %+v, %v", e, e.ID(), back, ok)
			}
		}
		for _, c := range st.Ckpts {
			if c.Entry < 0 || c.Cycle < 0 {
				t.Fatalf("accepted checkpoint of entry %d at cycle %d", c.Entry, c.Cycle)
			}
		}
	})
}

// TestClusterEndpointsSolo: a solo server answers the cluster surface
// with 404 not_found envelopes, not panics.
func TestClusterEndpointsSolo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/cluster"}, {"GET", cluster.PingPath},
		{"GET", "/v1/jobs/b-0/state"}, {"PUT", "/v1/jobs/b-0/state"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s on a solo server: status %d, want 404", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if code := envelope(t, body).Code; code != v2CodeNotFound {
			t.Errorf("%s %s on a solo server: code %q, want not_found", tc.method, tc.path, code)
		}
	}
}

// putJobStateAt PUTs st to the node at baseURL as a replica push.
func putJobStateAt(t *testing.T, baseURL string, st *JobState) {
	t.Helper()
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, baseURL+"/v1/jobs/"+st.ID+"/state", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replica push: status %d", resp.StatusCode)
	}
}

// ckptState is holder's state of the sieve job key with entry 0's
// checkpoint c.
func ckptState(key, holder string, c JobCheckpoint) *JobState {
	return &JobState{
		Schema: ResponseSchemaVersion, ID: JobID(key), Key: key, Holder: holder,
		Body: json.RawMessage(sieveBatchBody), Status: JobRunning,
		Ckpts: []JobStateCkpt{{Entry: 0, Gen: c.Gen, Cycle: c.Cycle, Snap: c.Snap}},
	}
}

// pushCkpt stores ckptState(key, holder, c) on s as a replica.
func pushCkpt(t *testing.T, s *Server, key, holder string, c JobCheckpoint) {
	t.Helper()
	if err := s.jm.storeReplica(ckptState(key, holder, c)); err != nil {
		t.Fatal(err)
	}
}

// heldCkpt returns the checkpoint s holds for entry 0 of job id.
func heldCkpt(s *Server, id string) JobCheckpoint {
	job := s.jm.get(id)
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.ckpts[0]
}

// TestReplicaKeepsLatestCheckpoint: a replica takes a pushed checkpoint
// only if it supersedes the one it holds — a later restart generation,
// or a higher cycle in the same one — and journal replay restores the
// same choice. An owner rerunning its entry from cycle 0 replaces a
// dead high-cycle checkpoint; a late push, or one from a former holder
// still on the old generation, does not move the resume point back.
func TestReplicaKeepsLatestCheckpoint(t *testing.T) {
	const key = "reordered-pushes"
	id := JobID(key)
	path := filepath.Join(t.TempDir(), "wal")
	s := New(Config{})
	if _, err := s.EnableJournal(path); err != nil {
		t.Fatal(err)
	}
	snap := func(gen int, cycle int64) JobCheckpoint {
		return JobCheckpoint{Gen: gen, Cycle: cycle, Snap: []byte(fmt.Sprintf("gen %d cycle %d", gen, cycle))}
	}
	for _, step := range []struct {
		what   string
		holder string
		push   JobCheckpoint
		want   JobCheckpoint
	}{
		{"first push", "owner", snap(0, 600_000), snap(0, 600_000)},
		{"the owner's rerun from cycle 0", "owner", snap(1, 200_000), snap(1, 200_000)},
		{"a former holder on the old generation", "former", snap(0, 800_000), snap(1, 200_000)},
		{"the rerun's next checkpoint", "owner", snap(1, 400_000), snap(1, 400_000)},
		{"a late push of the rerun's first", "owner", snap(1, 200_000), snap(1, 400_000)},
	} {
		pushCkpt(t, s, key, step.holder, step.push)
		if got := heldCkpt(s, id); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after %s: replica holds generation %d at cycle %d, want generation %d at cycle %d",
				step.what, got.Gen, got.Cycle, step.want.Gen, step.want.Cycle)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2, _ := newJournalServer(t, Config{}, path)
	if got, want := heldCkpt(s2, id), snap(1, 400_000); !reflect.DeepEqual(got, want) {
		t.Fatalf("after journal replay: replica holds generation %d at cycle %d, want generation %d at cycle %d",
			got.Gen, got.Cycle, want.Gen, want.Cycle)
	}
}

// TestReplicaTakesRestartedOwnersCheckpoint: an owner whose checkpoint
// stopped restoring reruns the entry from cycle 0 in a new generation,
// so its next push carries a lower cycle than its replica holds. The
// replica takes it (the one it held is dead) and keeps it across a
// journal replay, and a claim resumes from it to the crash-free bytes.
func TestReplicaTakesRestartedOwnersCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sieve simulation three times")
	}
	const key = "restarted-owner"
	id := JobID(key)
	cfg := Config{CheckpointEvery: 200_000}

	// The crash-free run, and how many checkpoints it writes.
	ref, refTS := newJournalServer(t, cfg, filepath.Join(t.TempDir(), "wal"))
	if status, body := postBatch(t, refTS.URL, key, sieveBatchBody); status != http.StatusAccepted {
		t.Fatalf("reference submit: status %d: %s", status, body)
	}
	want := pollJob(t, refTS, id)

	// The replica first holds a checkpoint at cycle 600,000 that does
	// not restore (another configuration's), then takes the restarted
	// owner's push at cycle 200,000.
	dead, live := sieveCheckpoint(t, 3, 3), sieveCheckpoint(t, 2, 1)
	live.Gen = 1
	path := filepath.Join(t.TempDir(), "wal")
	s := New(cfg)
	if _, err := s.EnableJournal(path); err != nil {
		t.Fatal(err)
	}
	pushCkpt(t, s, key, "owner", dead)
	pushCkpt(t, s, key, "owner", live)
	if c := heldCkpt(s, id); c.Cycle != live.Cycle {
		t.Fatalf("replica holds cycle %d after the restarted owner's push, want %d", c.Cycle, live.Cycle)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newJournalServer(t, cfg, path)
	if c := heldCkpt(s2, id); c.Cycle != live.Cycle {
		t.Fatalf("replica holds cycle %d after journal replay, want %d", c.Cycle, live.Cycle)
	}
	if err := s2.jm.adoptOwned(s2.jm.jobState(id)); err != nil {
		t.Fatal(err)
	}
	if got := pollJob(t, ts2, id); !bytes.Equal(got, want) {
		t.Errorf("claimed job's response differs from the crash-free run\ngot:  %s\nwant: %s", got, want)
	}
	// Resuming above cycle 200,000 skips exactly the first checkpoint.
	if got, want := s2.CheckpointsWritten(), ref.CheckpointsWritten()-1; got != want {
		t.Errorf("claimant wrote %d checkpoints, want %d: it did not resume from cycle %d", got, want, live.Cycle)
	}
}

// TestClaimPrefersRestartedStateOverStalePeer: the holder of a job dies
// after rerunning its entry from cycle 0. One survivor holds the rerun's
// checkpoint at cycle 200,000; the other missed that push and still
// holds the dead one at cycle 600,000. Whichever of the two claims, the
// claim ranks the rerun's generation above the stale copy's cycles,
// resumes from cycle 200,000 and serves the crash-free bytes.
func TestClaimPrefersRestartedStateOverStalePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation test")
	}
	// nodeA claims the job; nodeC, its holder, never starts. The ring
	// places keys by node id alone.
	ids := []cluster.Peer{{ID: "nodeA", URL: "http://a"}, {ID: "nodeB", URL: "http://b"}, {ID: "nodeC", URL: "http://c"}}
	key := keyOwnedBy(t, ids, "nodeA")
	id := JobID(key)

	// The crash-free run, checkpointed as often as the cluster nodes.
	ref, refTS := newJournalServer(t, Config{CheckpointEvery: 100_000}, filepath.Join(t.TempDir(), "wal"))
	if status, body := postBatch(t, refTS.URL, key, sieveBatchBody); status != http.StatusAccepted {
		t.Fatalf("reference submit: status %d: %s", status, body)
	}
	want := pollJob(t, refTS, id)

	dead, live := sieveCheckpoint(t, 3, 3), sieveCheckpoint(t, 2, 1)
	live.Gen = 1
	for _, tc := range []struct {
		name           string
		claimant, peer JobCheckpoint
	}{
		{"claimant-holds-rerun", live, dead},
		{"peer-holds-rerun", dead, live},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrA, addrB := freeLoopbackAddr(t), freeLoopbackAddr(t)
			peers := []cluster.Peer{
				{ID: "nodeA", URL: "http://" + addrA},
				{ID: "nodeB", URL: "http://" + addrB},
				{ID: "nodeC", URL: "http://" + freeLoopbackAddr(t)},
			}
			nb := startClusterNode(t, "nodeB", addrB, peers)
			na := startClusterNode(t, "nodeA", addrA, peers)
			// nodeB must route the job to nodeA, or it would claim it
			// itself.
			deadline := time.Now().Add(10 * time.Second)
			for nb.s.cluster.node.RouteOwner(cluster.JobRouteKey(id)) != "nodeA" {
				if time.Now().After(deadline) {
					t.Fatal("nodeB never saw nodeA alive")
				}
				time.Sleep(5 * time.Millisecond)
			}
			// The peer's copy lands first: nodeA learns of the job, and
			// starts its claim, only with its own.
			putJobStateAt(t, nb.url, ckptState(key, "nodeC", tc.peer))
			putJobStateAt(t, na.url, ckptState(key, "nodeC", tc.claimant))

			if got := pollJobAt(t, na.url, id); !bytes.Equal(got, want) {
				t.Errorf("claimed job's response differs from the crash-free run\ngot:  %s\nwant: %s", got, want)
			}
			if na.s.ClusterClaims() != 1 {
				t.Errorf("nodeA counted %d claims, want 1", na.s.ClusterClaims())
			}
			// Resuming from cycle 200,000 skips the first two
			// checkpoints; a claim of the stale copy would restart from
			// cycle 0 and write them all.
			if got, want := na.s.CheckpointsWritten(), ref.CheckpointsWritten()-2; got != want {
				t.Errorf("claimant wrote %d checkpoints, want %d: it did not resume from cycle %d", got, want, live.Cycle)
			}
		})
	}
}
