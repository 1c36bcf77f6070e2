package cluster

import (
	"sort"
	"sync"
	"time"
)

// Per-peer circuit breakers: the membership prober catches peers that
// stop answering pings, but the failures that dominate real fleets are
// *gray* — a peer that answers its heartbeat in time yet times out or
// errors on real work. A breaker watches the request path itself:
// consecutive forwarding/replication failures trip it open, an open
// breaker takes the peer out of the forwarding rotation (ring lookups
// skip it exactly like a dead peer), and after a cooldown a single
// probe request is let through to decide whether to close again.
//
// States follow the classic machine:
//
//	closed ──threshold consecutive failures──▶ open
//	open ──cooldown elapsed, next Allow──▶ half-open (that caller probes)
//	half-open ──probe success──▶ closed
//	half-open ──probe failure──▶ open (cooldown restarts)
//
// Reports that race a trip (requests admitted before the breaker
// opened, finishing after) are ignored while the breaker is open: they
// carry stale evidence, and the half-open probe is the only request
// whose outcome may close the circuit again.

// Breaker state names, as surfaced on /v1/cluster and /v2/healthz.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerStatus is one peer's breaker as reported on the cluster and
// health endpoints.
type BreakerStatus struct {
	Peer  string `json:"peer"`
	State string `json:"state"`
	// Trips counts closed→open (and half-open→open) transitions.
	Trips int64 `json:"trips"`
	// Rejects counts requests refused while the breaker was open.
	Rejects int64 `json:"rejects,omitempty"`
}

// Breaker is one peer's circuit. Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    string
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last tripped
	probeAt  time.Time // when the current half-open probe was admitted
	trips    int64
	rejects  int64
}

// NewBreaker builds a closed breaker that trips after threshold
// consecutive failures and re-probes every cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now, state: BreakerClosed}
}

// Allow reports whether a request to the peer may proceed. In the open
// state it refuses until the cooldown has elapsed, then admits exactly
// one caller as the half-open probe; that caller's Report decides the
// next state. A probe that never reports (caller died) stops blocking
// the circuit after another cooldown.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.rejects++
			return false
		}
		b.state = BreakerHalfOpen
		b.probeAt = now
		return true
	case BreakerHalfOpen:
		if now.Sub(b.probeAt) < b.cooldown {
			b.rejects++
			return false
		}
		b.probeAt = now // previous probe lost; admit a fresh one
		return true
	default:
		return true
	}
}

// Report feeds one request outcome into the circuit.
func (b *Breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.tripLocked()
		}
	case BreakerHalfOpen:
		if ok {
			b.state = BreakerClosed
			b.fails = 0
		} else {
			b.tripLocked()
		}
	case BreakerOpen:
		// Stale report from a request admitted before the trip: ignore.
	}
}

func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.trips++
}

// Tripped reports whether the circuit is hard-open: open and still in
// its cooldown. Ring lookups use this (it never admits a probe), so a
// peer becomes routable again the moment its circuit is ready to
// half-open — the first forwarded request then is the probe.
func (b *Breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerOpen && b.now().Sub(b.openedAt) < b.cooldown
}

// State returns the effective state name: an open breaker whose
// cooldown has elapsed reports half-open (it will admit a probe).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the circuit has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

func (b *Breaker) status(peer string) BreakerStatus {
	st := b.State()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{Peer: peer, State: st, Trips: b.trips, Rejects: b.rejects}
}

// Breaker returns the circuit for peer id, or nil for self, unknown
// peers, or when breakers are disabled.
func (n *Node) Breaker(id string) *Breaker { return n.breakers[id] }

// ReportPeer feeds one request outcome into id's breaker. The serve
// layer calls it after every forwarding, replication, and state-fetch
// attempt; ok must be false only for transport-level failures (errors,
// timeouts), never for well-formed application errors.
func (n *Node) ReportPeer(id string, ok bool) {
	if b := n.breakers[id]; b != nil {
		b.Report(ok)
	}
}

// BreakerStates returns every peer's breaker status, sorted by peer id.
func (n *Node) BreakerStates() []BreakerStatus {
	out := make([]BreakerStatus, 0, len(n.breakers))
	for id, b := range n.breakers {
		out = append(out, b.status(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
