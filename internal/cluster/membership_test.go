package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeer is a controllable ping endpoint: it can answer as a given
// node id, report leases, or simulate death by refusing requests.
type fakePeer struct {
	id     string
	down   atomic.Bool
	mu     sync.Mutex
	leases []Lease
	ts     *httptest.Server
}

func newFakePeer(t *testing.T, id string) *fakePeer {
	t.Helper()
	p := &fakePeer{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PingPath, func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		p.mu.Lock()
		resp := PingResponse{NodeID: p.id, Leases: p.leases}
		p.mu.Unlock()
		json.NewEncoder(w).Encode(resp)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func (p *fakePeer) setLeases(ls []Lease) {
	p.mu.Lock()
	p.leases = ls
	p.mu.Unlock()
}

// fastCfg builds a 20ms-heartbeat config over self + the fake peers.
func fastCfg(self string, peers ...*fakePeer) Config {
	cfg := Config{
		Self:           self,
		Peers:          []Peer{{ID: self, URL: "http://invalid.localhost"}},
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   60 * time.Millisecond,
		DeadAfter:      120 * time.Millisecond,
		LeaseTTL:       100 * time.Millisecond,
	}
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, Peer{ID: p.id, URL: p.ts.URL})
	}
	return cfg
}

func memberState(n *Node, id string) string {
	for _, m := range n.Members() {
		if m.ID == id {
			return m.State
		}
	}
	return "missing"
}

func waitState(t *testing.T, n *Node, id, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if memberState(n, id) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached state %s (now %s)", id, want, memberState(n, id))
}

// TestMembershipLifecycle walks one peer through alive → suspect → dead
// → rejoin → alive via real probes against a controllable endpoint.
func TestMembershipLifecycle(t *testing.T) {
	peer := newFakePeer(t, "node2")
	n, err := New(fastCfg("node1", peer))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	// Wait for genuine contact, not the optimistic initial alive.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ms := func() int64 {
			for _, m := range n.Members() {
				if m.ID == "node2" {
					return m.LastSeenMS
				}
			}
			return -1
		}(); ms >= 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitState(t, n, "node2", StateAlive)
	peer.down.Store(true)
	waitState(t, n, "node2", StateSuspect)
	waitState(t, n, "node2", StateDead)
	peer.down.Store(false)
	waitState(t, n, "node2", StateAlive) // rejoin
}

// TestMembershipIdentityMismatch: a peer answering with the wrong node
// id is a failure, not a healthy member.
func TestMembershipIdentityMismatch(t *testing.T) {
	impostor := newFakePeer(t, "someone-else")
	cfg := fastCfg("node1", impostor)
	cfg.Peers[1].ID = "node2" // we expect node2 at the impostor's URL
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	waitState(t, n, "node2", StateDead)
}

// TestLeaseClaimOnDeadHolder: when a lease's holder dies and the TTL
// runs out, exactly the route owner's claim hook fires with the lease.
func TestLeaseClaimOnDeadHolder(t *testing.T) {
	holder := newFakePeer(t, "node2")
	// A job id whose route owner (after node2 dies) is self: search for
	// one whose first successor is node2 and second is node1.
	probe, err := New(fastCfg("node1", holder))
	if err != nil {
		t.Fatal(err)
	}
	var jobID string
	for i := 0; ; i++ {
		jobID = fmt.Sprintf("b-%016x", i)
		if probe.ring.owner(JobRouteKey(jobID)) == "node2" {
			break
		}
	}
	holder.setLeases([]Lease{{JobID: jobID, Status: "running", Checkpoint: 3, TTLMS: 100}})

	n, err := New(fastCfg("node1", holder))
	if err != nil {
		t.Fatal(err)
	}
	claimed := make(chan Lease, 1)
	n.OnExpiredLease = func(l Lease) {
		claimed <- l
		n.DropLease(l.JobID)
	}
	n.Start()
	defer n.Stop()

	// Members start optimistically alive, so wait for the gossip round
	// that actually lands the lease before pulling the plug.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(n.RemoteLeases()) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(n.RemoteLeases()); got != 1 {
		t.Fatalf("remote leases = %d, want 1", got)
	}
	holder.down.Store(true)

	select {
	case l := <-claimed:
		if l.JobID != jobID || l.Holder != "node2" {
			t.Fatalf("claimed lease %+v, want job %s held by node2", l, jobID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("claim hook never fired for the dead holder's lease")
	}
	// Dropped: no re-claim of the same job.
	select {
	case l := <-claimed:
		t.Fatalf("lease %s claimed twice", l.JobID)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestLeaseNotClaimedWhileHolderAlive: expiry alone must not trigger a
// claim — only a dead holder does.
func TestLeaseNotClaimedWhileHolderAlive(t *testing.T) {
	holder := newFakePeer(t, "node2")
	n, err := New(fastCfg("node1", holder))
	if err != nil {
		t.Fatal(err)
	}
	var jobID string
	for i := 0; ; i++ {
		jobID = fmt.Sprintf("b-%016x", i)
		if n.ring.owner(JobRouteKey(jobID)) == "node2" {
			break
		}
	}
	// TTL shorter than a heartbeat: the entry is expired at every check,
	// but node2 keeps answering pings.
	holder.setLeases([]Lease{{JobID: jobID, Status: "running", TTLMS: 1}})
	fired := make(chan Lease, 1)
	n.OnExpiredLease = func(l Lease) { fired <- l }
	n.Start()
	defer n.Stop()
	waitState(t, n, "node2", StateAlive)
	select {
	case l := <-fired:
		t.Fatalf("claimed %s though its holder is alive", l.JobID)
	case <-time.After(400 * time.Millisecond):
	}
}

// TestNoteLeaseFeedsClaims: replica-push lease knowledge (NoteLease)
// must arm failover even if the holder never gossiped.
func TestNoteLeaseFeedsClaims(t *testing.T) {
	holder := newFakePeer(t, "node2")
	n, err := New(fastCfg("node1", holder))
	if err != nil {
		t.Fatal(err)
	}
	var jobID string
	for i := 0; ; i++ {
		jobID = fmt.Sprintf("b-%016x", i)
		if n.ring.owner(JobRouteKey(jobID)) == "node2" {
			break
		}
	}
	claimed := make(chan Lease, 1)
	n.OnExpiredLease = func(l Lease) {
		claimed <- l
		n.DropLease(l.JobID)
	}
	holder.down.Store(true) // dies before ever gossiping
	n.Start()
	defer n.Stop()
	n.NoteLease(Lease{JobID: jobID, Holder: "node2", Status: "queued"})
	select {
	case l := <-claimed:
		if l.JobID != jobID {
			t.Fatalf("claimed %s, want %s", l.JobID, jobID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NoteLease-sourced lease never claimed after holder death")
	}
}

// TestLeaseForgottenWhenHolderDropsIt: a peer that stops reporting a
// lease (job done or handed off) clears our copy on the next gossip.
func TestLeaseForgottenWhenHolderDropsIt(t *testing.T) {
	holder := newFakePeer(t, "node2")
	n, err := New(fastCfg("node1", holder))
	if err != nil {
		t.Fatal(err)
	}
	holder.setLeases([]Lease{{JobID: "b-1", Status: "running", TTLMS: 100}})
	n.Start()
	defer n.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(n.RemoteLeases()) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if len(n.RemoteLeases()) != 1 {
		t.Fatal("lease never gossiped in")
	}
	holder.setLeases(nil)
	for time.Now().Before(deadline) && len(n.RemoteLeases()) != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.RemoteLeases(); len(got) != 0 {
		t.Fatalf("lease table = %+v, want empty after holder dropped it", got)
	}
}
