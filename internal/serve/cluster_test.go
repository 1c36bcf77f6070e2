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

// waitHTTPReady polls /v1/healthz until the node answers.
func waitHTTPReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/healthz")
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

// pollJobAt polls one URL until the job is done, tolerating 202.
func pollJobAt(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	lastStatus, lastBody := 0, []byte(nil)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/batch/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		lastStatus, lastBody = resp.StatusCode, data
		switch resp.StatusCode {
		case http.StatusOK:
			return data
		case http.StatusAccepted, http.StatusServiceUnavailable, http.StatusNotFound:
			// 503/404 are transient during failover: the ring still
			// points at the dying node, or the claim has not landed yet.
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("poll %s at %s: status %d: %s", id, baseURL, resp.StatusCode, data)
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
	refStatus, ref := postJSON(t, plain.URL+"/v1/batch", asyncBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}

	// Submit to node1 a job that node2 owns: must forward, not run here.
	key := keyOwnedBy(t, peers, "node2")
	status, body := postJSONKey(t, n1.url+"/v1/batch", key, asyncBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var ack JobStatus
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
	refStatus, ref := postJSON(t, plain.URL+"/v1/batch", asyncBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d", refStatus)
	}

	// nodeA's replica push: the job state lands on nodeB before "nodeA"
	// ever gossips a lease (it is already dead).
	key := "failover-key"
	id := JobID(key)
	st := &JobState{
		Schema: ResponseSchemaVersion, ID: id, Key: key,
		Holder: "nodeA", Body: json.RawMessage(asyncBatchBody), Status: JobQueued,
	}
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, nb.url+"/v1/jobs/"+id+"/state", strings.NewReader(string(payload)))
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
	refStatus, ref := postJSON(t, plain.URL+"/v1/batch", drainBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d", refStatus)
	}

	// Submit a job node1 owns, then drain node1 before it can finish.
	key := keyOwnedBy(t, peers, "node1")
	status, body := postJSONKey(t, n1.url+"/v1/batch", key, drainBatchBody)
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
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
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
// with 404s, not panics.
func TestClusterEndpointsSolo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/cluster", cluster.PingPath, "/v1/jobs/b-0/state"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on a solo server: status %d, want 404", path, resp.StatusCode)
		}
	}
}
