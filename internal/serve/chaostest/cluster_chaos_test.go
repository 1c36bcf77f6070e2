package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mtsim/internal/serve"
	"mtsim/internal/serve/client"
)

// Cluster chaos: run a real 3-node mtsimd fleet, SIGKILL the node that
// owns an in-flight journaled job, and require the survivors to claim
// the lease, resume from the replicated checkpoints, and serve a final
// response byte-identical to a crash-free single-node run. This is the
// process-level proof of the failover path; the in-process mechanism
// tests live in internal/serve.

const clusterKey = "chaos-cluster-kill"

// clusterNodeProc is one fleet member's process handle.
type clusterNodeProc struct {
	id   string
	addr string
	cmd  *exec.Cmd
}

// startFleet launches a 3-node mtsimd cluster and waits for health.
func startFleet(t *testing.T, bin, dir string) []*clusterNodeProc {
	t.Helper()
	ids := []string{"n1", "n2", "n3"}
	nodes := make([]*clusterNodeProc, len(ids))
	var peerSpec []string
	for i, id := range ids {
		nodes[i] = &clusterNodeProc{id: id, addr: freeAddr(t)}
		peerSpec = append(peerSpec, fmt.Sprintf("%s=http://%s", id, nodes[i].addr))
	}
	peers := strings.Join(peerSpec, ",")
	for _, n := range nodes {
		cmd := exec.Command(bin,
			"-addr", n.addr,
			"-journal", filepath.Join(dir, n.id+".wal"),
			"-checkpoint-every", "20000",
			"-drain", "5s",
			"-node-id", n.id,
			"-peers", peers,
			"-heartbeat", "100ms",
			"-lease-ttl", "700ms")
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", n.id, err)
		}
		n.cmd = cmd
		proc := cmd
		t.Cleanup(func() {
			_ = proc.Process.Kill()
			_, _ = proc.Process.Wait()
		})
	}
	for _, n := range nodes {
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get("http://" + n.addr + "/v2/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster node %s never became healthy", n.id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// clusterView is the part of GET /v1/cluster these assertions need.
type clusterView struct {
	Self  string `json:"self"`
	Nodes []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	} `json:"nodes"`
	Leases []struct {
		JobID      string `json:"job_id"`
		Holder     string `json:"holder"`
		Checkpoint int64  `json:"checkpoint"`
	} `json:"leases"`
	Claims int64 `json:"claims"`
}

func fetchClusterView(addr string) (*clusterView, error) {
	resp, err := http.Get("http://" + addr + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: status %d: %s", resp.StatusCode, body)
	}
	var cv clusterView
	if err := json.Unmarshal(body, &cv); err != nil {
		return nil, err
	}
	return &cv, nil
}

// leaseHolder polls the fleet until some node's lease table names the
// job's holder.
func leaseHolder(t *testing.T, nodes []*clusterNodeProc, jobID string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			cv, err := fetchClusterView(n.addr)
			if err != nil {
				continue
			}
			for _, l := range cv.Leases {
				if l.JobID == jobID && l.Holder != "" {
					return l.Holder
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no node ever reported a lease for the job")
	return ""
}

// awaitCheckpoint polls the holder's own lease table until the job has
// journaled at least min checkpoints and returns the count. It fails if
// the lease leaves the table first: the holder finished (or handed off)
// the job, so a kill would no longer land mid-job.
func awaitCheckpoint(t *testing.T, holder *clusterNodeProc, jobID string, min int64) int64 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		cv, err := fetchClusterView(holder.addr)
		if err != nil {
			t.Fatalf("lease table of %s: %v", holder.id, err)
		}
		held := false
		for _, l := range cv.Leases {
			if l.JobID != jobID || l.Holder != holder.id {
				continue
			}
			held = true
			if l.Checkpoint >= min {
				return l.Checkpoint
			}
		}
		if !held {
			t.Fatalf("%s dropped the job's lease before %d checkpoints: it finished before the kill", holder.id, min)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached %d checkpoints on %s", min, holder.id)
	return 0
}

// finishedIn reports whether the journal at path records the job done.
func finishedIn(t *testing.T, path, jobID string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(data, []byte(`"kind":"done","id":"`+jobID+`"`))
}

// pollSurvivors polls the surviving nodes until the job completes,
// tolerating the transient 503/404 window while the fleet notices the
// death and migrates the lease.
func pollSurvivors(t *testing.T, nodes []*clusterNodeProc, jobID string) []byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		job, err := apiClient(nodes[i%len(nodes)].addr).GetJob(context.Background(), jobID)
		if err == nil && job.Status == serve.JobDone {
			return job.Result
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("job never finished on the survivors")
	return nil
}

// TestClusterNodeKillFailover: kill the lease holder of a running job;
// the survivors must finish it to byte-identical output and report the
// death and the claim on /v1/cluster.
func TestClusterNodeKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a 3-node daemon fleet; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)

	// Crash-free single-node reference: the canonical bytes.
	refAddr := freeAddr(t)
	ref := startDaemon(t, bin, refAddr, filepath.Join(dir, "ref.wal"))
	refID, err := submitKey(t, refAddr, clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	want := pollDone(t, refAddr, refID)
	_ = ref.Process.Signal(syscall.SIGTERM)
	_ = ref.Wait()

	nodes := startFleet(t, bin, dir)

	// Submit through node 0; the ring may forward it anywhere.
	jobID, err := submitKey(t, nodes[0].addr, clusterKey)
	if err != nil {
		t.Fatal(err)
	}
	if jobID != refID {
		t.Fatalf("cluster job id %s differs from reference %s", jobID, refID)
	}

	// Find the owner, wait until its own lease table shows the job two
	// checkpoints in (so a replica holds a resume point), then SIGKILL
	// it mid-job. Waiting on progress rather than a fixed sleep keeps
	// the test independent of how fast the job runs.
	holder := leaseHolder(t, nodes, jobID)
	var victim *clusterNodeProc
	var survivors []*clusterNodeProc
	for _, n := range nodes {
		if n.id == holder {
			victim = n
		} else {
			survivors = append(survivors, n)
		}
	}
	if victim == nil {
		t.Fatalf("lease holder %q is not a fleet member", holder)
	}
	ckpt := awaitCheckpoint(t, victim, jobID, 2)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.cmd.Wait()
	if finishedIn(t, filepath.Join(dir, victim.id+".wal"), jobID) {
		t.Fatalf("job finished on %s before the kill landed; nothing failed over", holder)
	}
	t.Logf("killed lease holder %s mid-job, %d checkpoints in", holder, ckpt)

	got := pollSurvivors(t, survivors, jobID)
	if string(got) != string(want) {
		t.Errorf("response after killing %s differs from the crash-free run:\n--- crash-free ---\n%s\n--- failover ---\n%s",
			holder, want, got)
	}

	// The fleet's own view must reflect what happened: the victim dead,
	// and the lease claimed by a survivor.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sawDead bool
		var claims int64
		for _, n := range survivors {
			cv, err := fetchClusterView(n.addr)
			if err != nil {
				continue
			}
			claims += cv.Claims
			for _, m := range cv.Nodes {
				if m.ID == holder && m.State == "dead" {
					sawDead = true
				}
			}
		}
		if sawDead && claims >= 1 {
			t.Logf("fleet reports %s dead, %d lease claim(s)", holder, claims)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reported the failover (dead=%v claims=%d)", sawDead, claims)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// streamCheckpointIDs tails a job's SSE stream to completion and
// returns the checkpoint event IDs in delivery order.
func streamCheckpointIDs(ctx context.Context, addr, jobID string) ([]string, error) {
	var ids []string
	err := apiClient(addr).StreamEvents(ctx, jobID, "", func(ev client.Event) error {
		if ev.Type == "checkpoint" {
			ids = append(ids, ev.ID)
		}
		return nil
	})
	if errors.Is(err, client.ErrStreamEnded) {
		err = nil
	}
	return ids, err
}

// TestClusterSSEFailoverResume: stream a job's checkpoint events from a
// node that does NOT own the job, SIGKILL the owner from the stream
// itself on the first checkpoint event, then resume with Last-Event-ID
// on a survivor. The first stream must break, not reach done, so the
// splice always crosses a real node death. The spliced checkpoint ID
// sequence must equal a crash-free run's exactly — no duplicate and no
// missing event across the failover. This works because the checkpoint
// cadence is deterministic (resume from a boundary snapshot lands
// subsequent checkpoints on the same cycles) and the successor's event
// history is replicated as a consistent cut.
func TestClusterSSEFailoverResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a 3-node daemon fleet; skipped in -short")
	}
	const sseKey = "chaos-sse-failover"
	dir := t.TempDir()
	bin := buildDaemon(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Crash-free single-node reference: the canonical checkpoint IDs.
	refAddr := freeAddr(t)
	ref := startDaemon(t, bin, refAddr, filepath.Join(dir, "sse-ref.wal"))
	refID, err := submitKey(t, refAddr, sseKey)
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamCheckpointIDs(ctx, refAddr, refID)
	if err != nil {
		t.Fatalf("reference stream: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no checkpoint events; lower -checkpoint-every")
	}
	_ = ref.Process.Signal(syscall.SIGTERM)
	_ = ref.Wait()

	nodes := startFleet(t, bin, dir)
	jobID, err := submitKey(t, nodes[0].addr, sseKey)
	if err != nil {
		t.Fatal(err)
	}
	holder := leaseHolder(t, nodes, jobID)
	var victim *clusterNodeProc
	var survivors []*clusterNodeProc
	for _, n := range nodes {
		if n.id == holder {
			victim = n
		} else {
			survivors = append(survivors, n)
		}
	}
	if victim == nil {
		t.Fatalf("lease holder %q is not a fleet member", holder)
	}

	// Stream from a survivor (the ring forwards the SSE relay to the
	// owner), and kill the owner as the first checkpoint event arrives:
	// the job is then under way however fast it runs, and the relay
	// breaks under the stream.
	var got []string
	err = apiClient(survivors[0].addr).StreamEvents(ctx, jobID, "", func(ev client.Event) error {
		if ev.Type != "checkpoint" {
			return nil
		}
		got = append(got, ev.ID)
		if len(got) == 1 {
			_ = victim.cmd.Process.Kill()
			_, _ = victim.cmd.Process.Wait()
		}
		return nil
	})
	switch {
	case errors.Is(err, client.ErrStreamEnded):
		t.Fatalf("the first stream reached done after %d checkpoint events: %s had finished the job before it died, so no failover was checked", len(got), holder)
	case err == nil:
		t.Fatal("stream ended without a done event or an error")
	case len(got) == 0:
		t.Fatalf("stream broke before its first checkpoint event: %v", err)
	}
	t.Logf("stream broke after %d checkpoint events (%v); resuming on a survivor", len(got), err)
	// Resume from the last delivered checkpoint. Retry through the
	// window where the survivors are still claiming the lease.
	last := got[len(got)-1]
	deadline := time.Now().Add(120 * time.Second)
	for i := 0; ; i++ {
		err := apiClient(survivors[i%len(survivors)].addr).StreamEvents(ctx, jobID, last, func(ev client.Event) error {
			if ev.Type == "checkpoint" {
				got = append(got, ev.ID)
				last = ev.ID
			}
			return nil
		})
		if errors.Is(err, client.ErrStreamEnded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed stream never finished: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("spliced checkpoint sequence differs from crash-free run:\n--- crash-free (%d) ---\n%s\n--- spliced (%d) ---\n%s",
			len(want), strings.Join(want, " "), len(got), strings.Join(got, " "))
	}
	t.Logf("spliced %d checkpoint events across the failover with no dup/miss", len(got))
}
