package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtsim/internal/cluster"
	"mtsim/internal/serve"
)

// Partition chaos: run a real 3-node fleet where n1's outbound path to
// n3 follows a seeded schedule — a hard partition, then a gray phase
// where n3 answers but 300-500ms slow. The schedule is asymmetric (only
// n1's transport is chaotic), which exercises every resilience layer at
// once:
//
//   - n1's probes to n3 drop, so n1 declares n3 dead while n3 keeps
//     seeing a healthy fleet (the split view);
//   - forwarded reads through n1 fail over to the replica holder and
//     trip n3's circuit breaker (visible on GET /v1/cluster);
//   - n1, holding a replica whose lease expired under a dead holder,
//     claims the job — and serves bytes identical to a chaos-free run;
//   - in the gray phase n3 is alive-but-slow, the failure mode probes
//     cannot see: hedged reads keep latency bounded and hedge losses
//     re-trip the breaker;
//   - after the schedule ends the fleet heals: views converge, lease
//     tables drain, the breaker closes on its half-open probe.
//
// The in-process mechanism tests live in internal/serve and
// internal/cluster; this is the process-level, real-HTTP proof.

// partitionChaosSpec is n1's fault schedule, measured from process
// start: 12s of hard partition toward n3, then 20s of 300-500ms delay.
const partitionChaosSpec = "peer=n3,to=12s,partition;peer=n3,from=12s,to=32s,delay=1@300ms-500ms"

// startChaosFleet launches the 3-node fleet with a 1s heartbeat and the
// chaos schedule armed on n1 only. The slow heartbeat matters: the gray
// phase's delays must stay under the probe timeout (= heartbeat) so n3
// remains alive-but-slow from n1 — the case breakers and hedging exist
// for — instead of flapping dead.
func startChaosFleet(t *testing.T, bin, dir string) []*clusterNodeProc {
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
		args := []string{
			"-addr", n.addr,
			"-journal", filepath.Join(dir, n.id+".wal"),
			"-checkpoint-every", "20000",
			"-drain", "5s",
			"-node-id", n.id,
			"-peers", peers,
			"-heartbeat", "1s",
			"-lease-ttl", "700ms",
		}
		if n.id == "n1" {
			args = append(args,
				"-chaos", partitionChaosSpec,
				"-chaos-seed", "7",
				"-breaker-threshold", "2",
				"-breaker-cooldown", "1s",
				"-hedge-fraction", "1")
		}
		cmd := exec.Command(bin, args...)
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
				t.Fatalf("chaos fleet node %s never became healthy", n.id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// resilView is the resilience slice of GET /v1/cluster.
type resilView struct {
	Nodes []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	} `json:"nodes"`
	Leases []struct {
		JobID  string `json:"job_id"`
		Holder string `json:"holder"`
	} `json:"leases"`
	Claims   int64 `json:"claims"`
	Breakers []struct {
		Peer  string `json:"peer"`
		State string `json:"state"`
		Trips int64  `json:"trips"`
	} `json:"breakers"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Chaos     *struct {
		Drops    int64 `json:"drops"`
		Delays   int64 `json:"delays"`
		Corrupts int64 `json:"corrupts"`
	} `json:"chaos"`
}

func fetchResilView(addr string) (*resilView, error) {
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
	var v resilView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

func mustResilView(t *testing.T, addr string) *resilView {
	t.Helper()
	v, err := fetchResilView(addr)
	if err != nil {
		t.Fatalf("cluster view %s: %v", addr, err)
	}
	return v
}

func (v *resilView) nodeState(id string) string {
	for _, m := range v.Nodes {
		if m.ID == id {
			return m.State
		}
	}
	return ""
}

func (v *resilView) breakerState(peer string) string {
	for _, b := range v.Breakers {
		if b.Peer == peer {
			return b.State
		}
	}
	return ""
}

// findRouteKey searches for an idempotency key whose job lands on the
// wanted ring successor pattern. The ring layout depends only on the
// peer ids and the vnode count, so an offline Node computes the same
// placement the fleet will.
func findRouteKey(t *testing.T, probe *cluster.Node, prefix string, want ...string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		succ := probe.Successors(cluster.JobRouteKey(serve.JobID(key)), len(want))
		if len(succ) < len(want) {
			continue
		}
		ok := true
		for j, id := range want {
			if succ[j].ID != id {
				ok = false
				break
			}
		}
		if ok {
			return key
		}
	}
	t.Fatalf("no key with successor pattern %v in 10000 candidates", want)
	return ""
}

func goroutineCount(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v2/healthz")
	if err != nil {
		t.Fatalf("healthz %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var h struct {
		Goroutines int `json:"goroutines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Goroutines
}

func TestPartitionChaosFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 3-node fleet through a ~35s fault schedule; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildDaemon(t, dir)

	// Pick the two jobs by ring placement. Both are owned by n3 (the
	// peer the chaos schedule targets); they differ in where the
	// replica lands: keyClaim's replica is n1 itself (so n1 can claim
	// during the partition), keyHedge's replica is n2 (so reads through
	// n1 have a fast second candidate to hedge to).
	ringPeers := []cluster.Peer{
		{ID: "n1", URL: "http://ring-probe-1"},
		{ID: "n2", URL: "http://ring-probe-2"},
		{ID: "n3", URL: "http://ring-probe-3"},
	}
	ringProbe, err := cluster.New(cluster.Config{Self: "n1", Peers: ringPeers})
	if err != nil {
		t.Fatal(err)
	}
	keyClaim := findRouteKey(t, ringProbe, "pchaos-claim", "n3", "n1")
	keyHedge := findRouteKey(t, ringProbe, "pchaos-hedge", "n3", "n2")
	idClaim, idHedge := serve.JobID(keyClaim), serve.JobID(keyHedge)

	// Reference bytes from a chaos-free solo daemon.
	refAddr := freeAddr(t)
	ref := startDaemon(t, bin, refAddr, filepath.Join(dir, "ref.wal"))
	for _, key := range []string{keyClaim, keyHedge} {
		if _, err := submitKey(t, refAddr, key); err != nil {
			t.Fatalf("reference submit %s: %v", key, err)
		}
	}
	wantClaim := pollDone(t, refAddr, idClaim)
	wantHedge := pollDone(t, refAddr, idHedge)
	_ = ref.Process.Kill()
	_, _ = ref.Process.Wait()

	// The chaos clock starts when n1 creates its transport, a moment
	// after t0; phase boundaries below are measured from t0 with slack.
	t0 := time.Now()
	nodes := startChaosFleet(t, bin, dir)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]

	// Submit both jobs through their owner n3. The chaos schedule only
	// touches n1's outbound path, so submission, execution, and replica
	// pushes (n3 -> n1, n3 -> n2) all run clean.
	for _, key := range []string{keyClaim, keyHedge} {
		if _, err := submitKey(t, n3.addr, key); err != nil {
			t.Fatalf("fleet submit %s: %v", key, err)
		}
	}
	if got := pollDone(t, n3.addr, idClaim); !bytes.Equal(got, wantClaim) {
		t.Fatalf("owner's result differs from the solo run\ngot: %s\nwant: %s", got, wantClaim)
	}
	pollDone(t, n3.addr, idHedge)

	// --- Phase 1: hard partition (chaos clock 0s..12s) ----------------
	// Reads through n1 must keep working (failover to n2's replica),
	// n3's breaker must trip, n1 must declare n3 dead, and once the
	// lease under the dead holder expires n1 must claim the job it
	// holds a replica of.
	var sawDead, sawOpen, sawClaim bool
	var lastView *resilView
	partitionDeadline := t0.Add(11500 * time.Millisecond)
	for time.Now().Before(partitionDeadline) && !(sawDead && sawOpen && sawClaim) {
		// Each read drives the forwarding path: primary n3 drops, the
		// failover candidate n2 answers from its replica.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		job, err := apiClient(n1.addr).GetJob(ctx, idHedge)
		cancel()
		if err == nil && job.Status == serve.JobDone && !bytes.Equal(job.Result, wantHedge) {
			t.Fatalf("partition-phase read diverged\ngot: %s\nwant: %s", job.Result, wantHedge)
		}
		if v, verr := fetchResilView(n1.addr); verr == nil {
			lastView = v
			if v.nodeState("n3") == cluster.StateDead {
				sawDead = true
			}
			if v.breakerState("n3") == cluster.BreakerOpen {
				sawOpen = true
			}
			if v.Claims >= 1 {
				sawClaim = true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !sawDead {
		t.Fatalf("n1 never declared n3 dead during the partition; last view %+v", lastView)
	}
	if !sawOpen {
		t.Errorf("n3's breaker never showed open on n1's /v1/cluster; last view %+v", lastView)
	}
	if !sawClaim {
		t.Errorf("n1 never claimed the lease it replicates for the dead holder; last view %+v", lastView)
	}
	// The split is asymmetric: the clean side still sees everyone.
	for _, m := range mustResilView(t, n3.addr).Nodes {
		if m.State != cluster.StateAlive {
			t.Errorf("n3 sees %s as %s — the partition should be asymmetric", m.ID, m.State)
		}
	}
	// Only the replica holder under the dead owner claims.
	for _, n := range []*clusterNodeProc{n2, n3} {
		if got := mustResilView(t, n.addr).Claims; got != 0 {
			t.Errorf("%s claimed %d jobs; only n1 holds a claimable replica", n.id, got)
		}
	}
	// n1's copy of the claimed job serves the canonical bytes mid-split.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if got, err := apiClient(n1.addr).WaitJob(ctx, idClaim); err != nil {
		t.Errorf("claimed job unreadable on n1: %v", err)
	} else if !bytes.Equal(got, wantClaim) {
		t.Errorf("n1's claimed result differs from the solo run\ngot: %s\nwant: %s", got, wantClaim)
	}
	cancel()

	// --- Phase 2: gray failure (chaos clock 12s..32s) -----------------
	// n3 answers probes again (300-500ms delay < 1s probe timeout) so
	// it reads as alive — but every forwarded request to it is slow.
	// Hedged reads through n1 must stay fast by racing n2's replica,
	// and losing to the hedge must re-trip n3's breaker.
	time.Sleep(time.Until(t0.Add(13 * time.Second)))
	aliveDeadline := time.Now().Add(10 * time.Second)
	for mustResilView(t, n1.addr).nodeState("n3") != cluster.StateAlive {
		if time.Now().After(aliveDeadline) {
			t.Fatal("n1 never saw n3 return to alive in the slow phase")
		}
		time.Sleep(100 * time.Millisecond)
	}
	base := mustResilView(t, n1.addr)
	const reads = 12
	fast := 0
	for i := 0; i < reads; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		start := time.Now()
		job, err := apiClient(n1.addr).GetJob(ctx, idHedge)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("slow-phase read %d: %v", i, err)
		}
		if job.Status != serve.JobDone || !bytes.Equal(job.Result, wantHedge) {
			t.Fatalf("slow-phase read %d: status %s, bytes diverged", i, job.Status)
		}
		if elapsed < 250*time.Millisecond {
			fast++
		}
		// Space the reads past the breaker cooldown so half-open probes
		// (the reads that actually touch slow n2 and hedge) keep coming.
		time.Sleep(250 * time.Millisecond)
	}
	after := mustResilView(t, n1.addr)
	if after.Hedges <= base.Hedges {
		t.Errorf("no hedges fired in the slow phase (before %d, after %d)", base.Hedges, after.Hedges)
	}
	if after.HedgeWins <= base.HedgeWins {
		t.Errorf("no hedge ever beat the slow primary (before %d, after %d)", base.HedgeWins, after.HedgeWins)
	}
	if fast < reads*3/4 {
		t.Errorf("only %d/%d reads finished under 250ms against a 300-500ms-slow owner", fast, reads)
	}
	if after.Chaos == nil || after.Chaos.Drops == 0 || after.Chaos.Delays == 0 {
		t.Errorf("chaos counters not surfaced on /v1/cluster: %+v", after.Chaos)
	}

	// --- Phase 3: heal (chaos clock > 32s) ----------------------------
	// Views converge, lease tables drain, and the first clean read
	// through n1 is the half-open probe that closes n3's breaker.
	time.Sleep(time.Until(t0.Add(33 * time.Second)))
	healDeadline := time.Now().Add(20 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = apiClient(n1.addr).GetJob(ctx, idHedge)
		cancel()
		healed := true
		var views [3]*resilView
		for i, n := range nodes {
			v := mustResilView(t, n.addr)
			views[i] = v
			for _, m := range v.Nodes {
				if m.State != cluster.StateAlive {
					healed = false
				}
			}
			if len(v.Leases) != 0 {
				healed = false
			}
		}
		if views[0].breakerState("n3") != cluster.BreakerClosed {
			healed = false
		}
		if healed {
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatalf("fleet never healed:\nn1: %+v\nn2: %+v\nn3: %+v", views[0], views[1], views[2])
		}
		time.Sleep(200 * time.Millisecond)
	}

	// No goroutine pileup from 35s of drops, delays, and hedges.
	for _, n := range nodes {
		if g := goroutineCount(t, n.addr); g > 300 {
			t.Errorf("%s runs %d goroutines after heal — leak", n.id, g)
		}
	}

	// Every node serves byte-identical results for both jobs.
	for _, n := range nodes {
		for _, c := range []struct {
			id   string
			want json.RawMessage
		}{{idClaim, wantClaim}, {idHedge, wantHedge}} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			got, err := apiClient(n.addr).WaitJob(ctx, c.id)
			cancel()
			if err != nil {
				t.Errorf("%s: job %s unreadable after heal: %v", n.id, c.id, err)
				continue
			}
			if !bytes.Equal(got, c.want) {
				t.Errorf("%s: job %s differs from the solo run\ngot: %s\nwant: %s", n.id, c.id, got, c.want)
			}
		}
	}
}
