package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"mtsim/internal/cluster"
)

// Asymmetric partition: node1's outbound path to node2 is dead while
// node2's path to node1 stays clean. node1 therefore declares node2
// dead (its probes all drop) while node2 keeps seeing node1 alive —
// the classic split view. The job's owner (node2) keeps running it;
// node1, holding a replica and an expired lease for a "dead" holder,
// claims and re-runs it locally. Determinism makes the split harmless:
// both sides finish with byte-identical responses, and when the
// partition heals the membership view converges and the lease tables
// drain.

// startClusterNodeWith is startClusterNode with a caller-built cluster
// config (the seam for installing a chaos transport on one node).
func startClusterNodeWith(t *testing.T, addr string, ccfg cluster.Config) *clusterNode {
	t.Helper()
	s := New(Config{CheckpointEvery: 100_000})
	if _, err := s.EnableJournal(filepath.Join(t.TempDir(), "wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableCluster(ccfg); err != nil {
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

func TestClusterAsymmetricPartitionClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node simulation test")
	}
	// Reference bytes first, so the chaos window is not eaten by the
	// solo run's simulation time.
	_, plain := newTestServer(t, Config{})
	refStatus, ref := postBatch(t, plain.URL, "", asyncBatchBody)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, ref)
	}

	addr1, addr2 := freeLoopbackAddr(t), freeLoopbackAddr(t)
	peers := []cluster.Peer{
		{ID: "node1", URL: "http://" + addr1},
		{ID: "node2", URL: "http://" + addr2},
	}
	// node1 drops everything it sends node2 for the first 8 seconds:
	// probes, forwards, state fetches. node2 runs chaos-free.
	chaos := cluster.NewChaosTransport(7, []cluster.ChaosRule{
		{Peer: "node2", To: 8 * time.Second, Partition: true},
	}, peers, nil)
	cfg1 := testClusterCfg("node1", peers)
	cfg1.Transport = chaos
	cfg1.Client = &http.Client{Timeout: time.Second, Transport: chaos}
	n1 := startClusterNodeWith(t, addr1, cfg1)
	n2 := startClusterNode(t, "node2", addr2, peers)

	// Submit node2's job to node2 directly (node1 cannot forward to it).
	key := keyOwnedBy(t, peers, "node2")
	id := JobID(key)
	status, body := postBatch(t, n2.url, key, asyncBatchBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}

	// The split view: node1 declares node2 dead; node2 keeps node1 alive.
	deadline := time.Now().Add(6 * time.Second)
	for {
		cs1 := clusterStatusAt(t, n1.url)
		var n2Dead bool
		for _, m := range cs1.Nodes {
			if m.ID == "node2" && m.State == cluster.StateDead {
				n2Dead = true
			}
		}
		if n2Dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node1 never declared node2 dead: %+v", cs1.Nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, m := range clusterStatusAt(t, n2.url).Nodes {
		if m.ID == "node1" && m.State != cluster.StateAlive {
			t.Fatalf("node2 sees node1 %s — the partition is not asymmetric", m.State)
		}
	}

	// node1 claims from its local replica once the lease expires.
	deadline = time.Now().Add(10 * time.Second)
	for n1.s.ClusterClaims() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node1 never claimed the job despite holding a replica of a dead holder")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := n2.s.ClusterClaims(); got != 0 {
		t.Errorf("node2 claimed %d jobs — owners must not claim their own leases", got)
	}

	// Both sides of the split serve the canonical bytes.
	got1 := pollJobAt(t, n1.url, id)
	got2 := pollJobAt(t, n2.url, id)
	if !bytes.Equal(got1, ref) {
		t.Errorf("node1's claimed response differs from the solo run\ngot: %s\nref: %s", got1, ref)
	}
	if !bytes.Equal(got2, ref) {
		t.Errorf("node2's response differs from the solo run\ngot: %s\nref: %s", got2, ref)
	}

	// Heal: after the window the views converge and lease tables drain.
	deadline = time.Now().Add(20 * time.Second)
	for {
		cs1 := clusterStatusAt(t, n1.url)
		cs2 := clusterStatusAt(t, n2.url)
		allAlive := true
		for _, m := range append(cs1.Nodes, cs2.Nodes...) {
			if m.State != cluster.StateAlive {
				allAlive = false
			}
		}
		if allAlive && len(cs1.Leases) == 0 && len(cs2.Leases) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("views never converged after heal:\nnode1: %+v leases %+v\nnode2: %+v leases %+v",
				cs1.Nodes, cs1.Leases, cs2.Nodes, cs2.Leases)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The transport really did inject: every probe and forward to node2
	// inside the window was a drop.
	if st := chaos.Stats(); st.Drops == 0 {
		t.Error("chaos transport reports zero drops")
	}
	var csRaw struct {
		Chaos *cluster.ChaosStats `json:"chaos"`
	}
	resp, err := http.Get(n1.url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&csRaw); err != nil {
		t.Fatal(err)
	}
	if csRaw.Chaos == nil || csRaw.Chaos.Drops == 0 {
		t.Errorf("GET /v1/cluster does not surface chaos stats: %+v", csRaw.Chaos)
	}
}

// TestJobStateRespSurvivesTransferVerbatim: the recorded response bytes
// must cross a job-state push or fetch without reformatting. This is
// what makes "a fault never changes bytes" hold when a node adopts a
// finished job from a peer instead of rendering it locally:
// encoding/json would compact (Marshal) or re-indent (SetIndent) a
// nested RawMessage, so Resp travels base64-encoded.
func TestJobStateRespSurvivesTransferVerbatim(t *testing.T) {
	pretty := []byte("{\n  \"schema\": 1,\n  \"results\": [\n    {\n      \"cycles\": 42\n    }\n  ]\n}\n")
	st := JobState{Schema: 1, ID: "b-1", Holder: "n2", Resp: pretty, Status: string(JobDone)}

	// The push path: plain Marshal, as putJobState does.
	wire, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	var got JobState
	if err := json.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Resp, pretty) {
		t.Errorf("Resp after Marshal round trip:\n%q\nwant\n%q", got.Resp, pretty)
	}

	// The fetch path: the state GET renders through the indenting
	// encoder (encodeJSON), which re-indents any nested raw JSON.
	if err := json.Unmarshal(encodeJSON(&st), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Resp, pretty) {
		t.Errorf("Resp after encodeJSON round trip:\n%q\nwant\n%q", got.Resp, pretty)
	}

	// Legacy journal records stored the response as an inline JSON
	// document; those must still decode (to their old compact bytes)
	// rather than fail replay.
	var legacy verbatimJSON
	if err := json.Unmarshal([]byte(`{"schema":1}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if string(legacy) != `{"schema":1}` {
		t.Errorf("legacy inline decode = %q", legacy)
	}
}
