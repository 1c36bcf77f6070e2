// Package cluster is the fault-tolerance brain of a multi-node mtsimd
// fleet: static-seed membership with heartbeat health probing, a
// consistent-hash ring that routes session keys and job ids to owner
// nodes, and a gossiped job-lease table whose expiries drive failover.
//
// The design follows the paper's thesis applied to the serving plane: a
// node death is just a very long latency event, and the fleet masks it
// by always having somewhere else ready to run the work. Concretely:
//
//   - membership: every node probes every peer each HeartbeatEvery via
//     GET /v1/cluster/ping; a peer silent past SuspectAfter is suspect,
//     past DeadAfter dead, and a successful probe of a dead peer marks
//     it alive again (rejoin);
//   - routing: the ring orders all configured nodes per key; the route
//     owner is the first ALIVE node in that order, so ownership moves
//     deterministically when nodes die and moves back when they rejoin;
//   - leases: ping replies carry the prober's view of the peer's owned
//     jobs (job id, status, checkpoint progress, remaining TTL). Each
//     node folds these into a lease table with locally-clocked expiries
//     (received-at + TTL, never comparing remote clocks). When a lease's
//     holder is dead and the lease has expired, the route owner of the
//     job claims it via the OnExpiredLease hook.
//
// The package is HTTP-client-only: it probes peers and decides, while
// internal/serve owns all HTTP serving (ping endpoint, state transfer,
// request forwarding) and the journal side of leases. That keeps the
// dependency one-way (serve imports cluster) and the ring/membership
// logic testable without a server.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Peer identifies one configured cluster member.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Health states of a member, as decided by the local prober.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// Config parameterizes a Node. Self and Peers are required; every other
// field defaults sensibly (see withDefaults).
type Config struct {
	// Self is this node's id; it must appear in Peers.
	Self string
	// Peers is the static seed membership, including self.
	Peers []Peer
	// HeartbeatEvery is the probe period (default 500ms).
	HeartbeatEvery time.Duration
	// SuspectAfter marks a silent peer suspect (default 3x heartbeat);
	// DeadAfter marks it dead (default 6x heartbeat). Dead is what
	// arms lease claims, so DeadAfter bounds how fast failover can be.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// LeaseTTL is how long a job lease stays valid without renewal
	// (default 3s). Ping replies renew every owned lease implicitly.
	LeaseTTL time.Duration
	// Replicas is how many nodes (owner included) hold a copy of each
	// async job's state (default 2, clamped to the cluster size).
	Replicas int
	// Client probes peers (default: a client with HeartbeatEvery
	// timeout so one hung peer cannot stall the probe round).
	Client *http.Client
	// Transport, when set, underlies every intra-cluster HTTP client —
	// the probe client built here and the forwarding/state-transfer
	// clients the serve layer derives from this config. The chaos
	// transport plugs in through this seam.
	Transport http.RoundTripper
	// BreakerThreshold is how many consecutive request-path failures
	// trip a peer's circuit breaker (default 5; negative disables
	// breakers entirely). BreakerCooldown is how long an open breaker
	// refuses traffic before admitting a half-open probe (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * c.HeartbeatEvery
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Peers) {
		c.Replicas = len(c.Peers)
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.HeartbeatEvery, Transport: c.Transport}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// Validate rejects configurations a Node cannot run with.
func (c Config) Validate() error {
	if c.Self == "" {
		return errors.New("cluster: node id must be set")
	}
	if len(c.Peers) < 2 {
		return errors.New("cluster: need at least two peers (self included)")
	}
	seen := make(map[string]bool, len(c.Peers))
	selfListed := false
	for _, p := range c.Peers {
		if p.ID == "" || p.URL == "" {
			return fmt.Errorf("cluster: peer %+v needs both id and url", p)
		}
		if seen[p.ID] {
			return fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		if p.ID == c.Self {
			selfListed = true
		}
	}
	if !selfListed {
		return fmt.Errorf("cluster: self id %q not in peer list", c.Self)
	}
	return nil
}

// Lease is one job lease as gossiped between nodes: who runs the job,
// how far it has checkpointed, and how long the lease is still good for.
type Lease struct {
	JobID      string `json:"job_id"`
	Holder     string `json:"holder"`
	Status     string `json:"status"`
	Checkpoint int64  `json:"checkpoint"`
	// Tenant attributes the job for usage accounting, so a node that
	// claims an expired lease keeps billing the right tenant.
	Tenant string `json:"tenant,omitempty"`
	// TTLMS is the remaining validity in milliseconds. Always relative:
	// receivers re-anchor it to their own clock, so cross-node clock
	// skew never enters a claim decision.
	TTLMS int64 `json:"ttl_ms"`
}

// Member is one node's health as seen by the local prober.
type Member struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
	Self  bool   `json:"self,omitempty"`
	// LastSeenMS is milliseconds since the last successful contact
	// (0 for self, -1 before any contact).
	LastSeenMS int64  `json:"last_seen_ms"`
	Err        string `json:"error,omitempty"`
}

// PingResponse is the body of GET /v1/cluster/ping: the peer's identity
// plus the leases it currently holds and the per-tenant usage it has
// accrued locally. internal/serve serves it; this package consumes it.
type PingResponse struct {
	NodeID string  `json:"node_id"`
	Leases []Lease `json:"leases"`
	// Usage is the peer's locally-accrued per-tenant accounting. Each
	// node speaks only for work it executed itself; receivers keep the
	// latest report per (peer, tenant) and sum across peers, so the
	// cluster-wide totals survive any single node's death.
	Usage []TenantUsage `json:"usage,omitempty"`
}

// TenantUsage is one tenant's accrued usage on one node: monotonic
// counters a node gossips on ping replies so accounting survives
// failover. QueueMS is total time jobs waited before dispatch.
type TenantUsage struct {
	Tenant    string `json:"tenant"`
	Jobs      int64  `json:"jobs"`
	SimCycles int64  `json:"sim_cycles"`
	QueueMS   int64  `json:"queue_ms"`
}

// member is the prober's book-keeping for one peer.
type member struct {
	peer     Peer
	state    string
	lastSeen time.Time // zero = never contacted
	anchor   time.Time // when the silence clock started (Start or last contact)
	lastErr  string
}

// remoteLease is a gossiped lease re-anchored to the local clock.
type remoteLease struct {
	Lease
	expires time.Time
}

// Node is one cluster member's view of the fleet. Create with New, wire
// the hooks, then Start the prober. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg    Config
	ring   *ring
	client *http.Client
	now    func() time.Time // injectable clock for tests

	// LocalLeases reports the jobs this node currently owns; the serve
	// layer answers peers' pings with it. Must be set before Start.
	LocalLeases func() []Lease
	// LocalUsage reports this node's locally-accrued per-tenant usage
	// for gossip on ping replies. Optional.
	LocalUsage func() []TenantUsage
	// OnExpiredLease fires (on its own goroutine) when a dead peer's
	// lease has expired and this node is the job's route owner. The
	// hook must call DropLease once the job is claimed or given up;
	// until then the claim is not retried.
	OnExpiredLease func(l Lease)

	// breakers holds one circuit per remote peer (see breaker.go);
	// empty when Config.BreakerThreshold < 0. Fixed after New.
	breakers map[string]*Breaker

	mu       sync.Mutex
	members  map[string]*member
	remote   map[string]*remoteLease
	usage    map[string][]TenantUsage // peer id -> last gossiped usage
	claiming map[string]bool
	started  bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Node from cfg.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:      cfg,
		ring:     newRing(cfg.Peers, ringVNodes),
		client:   cfg.Client,
		now:      time.Now,
		members:  make(map[string]*member, len(cfg.Peers)),
		remote:   make(map[string]*remoteLease),
		usage:    make(map[string][]TenantUsage),
		claiming: make(map[string]bool),
		breakers: make(map[string]*Breaker),
		stop:     make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		n.members[p.ID] = &member{peer: p, state: StateAlive}
		if p.ID != cfg.Self && cfg.BreakerThreshold > 0 {
			n.breakers[p.ID] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		}
	}
	return n, nil
}

// Self returns this node's id.
func (n *Node) Self() string { return n.cfg.Self }

// LeaseTTL returns the configured lease validity window.
func (n *Node) LeaseTTL() time.Duration { return n.cfg.LeaseTTL }

// Replicas returns how many nodes hold each job's state.
func (n *Node) Replicas() int { return n.cfg.Replicas }

// PeerURL resolves a member id to its base URL.
func (n *Node) PeerURL(id string) (string, bool) {
	m, ok := n.members[id] // members map is fixed after New
	if !ok {
		return "", false
	}
	return m.peer.URL, true
}

// Alive reports whether id is currently believed alive (self always is).
func (n *Node) Alive(id string) bool {
	if id == n.cfg.Self {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.members[id]
	return m != nil && m.state == StateAlive
}

// RouteOwner returns the node that should handle key right now: the
// first alive node in the key's ring-successor order whose circuit
// breaker is not hard-open, falling back to the first merely-alive node
// (all breakers tripped) and then to the primary owner (whole fleet
// looks down). Skipping tripped peers mirrors the dead-peer skip: a
// peer the request path cannot reach should not own routes, even if it
// still answers heartbeats.
func (n *Node) RouteOwner(key string) string {
	succ := n.ring.successors(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	firstAlive := ""
	for _, id := range succ {
		if id == n.cfg.Self {
			return id
		}
		if m := n.members[id]; m != nil && m.state == StateAlive {
			if firstAlive == "" {
				firstAlive = id
			}
			if b := n.breakers[id]; b == nil || !b.Tripped() {
				return id
			}
		}
	}
	if firstAlive != "" {
		return firstAlive
	}
	if len(succ) == 0 {
		return n.cfg.Self
	}
	return succ[0]
}

// Successors returns the first k distinct peers in key's ring order
// regardless of health — the replica placement for the key.
func (n *Node) Successors(key string, k int) []Peer {
	ids := n.ring.successors(key)
	if k < len(ids) {
		ids = ids[:k]
	}
	out := make([]Peer, 0, len(ids))
	for _, id := range ids {
		out = append(out, n.members[id].peer)
	}
	return out
}

// Members returns every member's health, sorted by id, self included.
func (n *Node) Members() []Member {
	now := n.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		mem := Member{ID: m.peer.ID, URL: m.peer.URL, State: m.state, LastSeenMS: -1}
		if m.peer.ID == n.cfg.Self {
			mem.Self, mem.State, mem.LastSeenMS = true, StateAlive, 0
		} else if !m.lastSeen.IsZero() {
			mem.LastSeenMS = now.Sub(m.lastSeen).Milliseconds()
		}
		mem.Err = m.lastErr
		out = append(out, mem)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AliveCount returns (alive, dead) member counts, self counted alive.
func (n *Node) AliveCount() (alive, dead int) {
	for _, m := range n.Members() {
		switch m.State {
		case StateAlive:
			alive++
		case StateDead:
			dead++
		}
	}
	return alive, dead
}

// RemoteLeases returns the gossiped (non-local) lease table with each
// entry's remaining TTL recomputed against the local clock.
func (n *Node) RemoteLeases() []Lease {
	now := n.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Lease, 0, len(n.remote))
	for _, rl := range n.remote {
		l := rl.Lease
		l.TTLMS = rl.expires.Sub(now).Milliseconds() // may be negative: expired
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// RemoteUsage returns the per-tenant usage gossiped by peers, summed
// across nodes and sorted by tenant. Reports from dead peers are kept:
// a node's accrued usage does not vanish with the node, which is what
// lets cluster-wide accounting survive failover.
func (n *Node) RemoteUsage() []TenantUsage {
	n.mu.Lock()
	defer n.mu.Unlock()
	byTenant := make(map[string]TenantUsage)
	for _, list := range n.usage {
		for _, u := range list {
			t := byTenant[u.Tenant]
			t.Tenant = u.Tenant
			t.Jobs += u.Jobs
			t.SimCycles += u.SimCycles
			t.QueueMS += u.QueueMS
			byTenant[u.Tenant] = t
		}
	}
	out := make([]TenantUsage, 0, len(byTenant))
	for _, u := range byTenant {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// NoteLease records lease knowledge learned outside the gossip path —
// the serve layer calls it when an owner pushes replica state, so even
// a node that dies before its first post-submit ping leaves claimable
// evidence on its replicas.
func (n *Node) NoteLease(l Lease) {
	if l.Holder == n.cfg.Self {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.remote[l.JobID] = &remoteLease{Lease: l, expires: n.now().Add(n.cfg.LeaseTTL)}
}

// DropLease removes a job from the gossiped lease table: the claim hook
// calls it after adopting (or abandoning) the job.
func (n *Node) DropLease(jobID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.remote, jobID)
}
