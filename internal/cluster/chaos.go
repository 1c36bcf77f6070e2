package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtsim/internal/rng"
)

// The chaos transport makes fleet failure modes reproducible: it wraps
// the http.RoundTripper used by every intra-cluster call (forwarding,
// replication, lease gossip, heartbeats) and injects faults — drops,
// asymmetric partitions, added latency, corrupted replies — on a
// scheduled per-peer basis. Determinism reuses the fault-model
// substream discipline from internal/rng: every injection decision is
// a pure function of (seed, peer, per-peer request sequence number,
// rule index), drawn from rng.Fork substreams, so a chaos run replays
// identically no matter how goroutines interleave. Asymmetry falls out
// of placement: chaos is installed per node, so node A dropping its
// requests to B says nothing about B's path to A.

// ChaosRule is one scheduled injection: which peer it targets, when it
// is active, and what it does. A request is matched against every rule;
// effects combine (drop wins, delays take the max).
type ChaosRule struct {
	// Peer is the target peer id, or "*" for every peer.
	Peer string
	// From/To bound the active window, measured from transport creation.
	// To == 0 means the rule never expires.
	From, To time.Duration
	// Partition drops every matched request (Drop = 1 shorthand).
	Partition bool
	// Drop is the probability a matched request is dropped: the request
	// never reaches the wire and the caller sees a transport error.
	Drop float64
	// DelayRate is the probability a matched request is delayed by a
	// seeded duration in [DelayMin, DelayMax].
	DelayRate          float64
	DelayMin, DelayMax time.Duration
	// Corrupt is the probability a matched reply's body is corrupted
	// (every byte inverted — guaranteed-invalid JSON, same length).
	Corrupt float64
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Drops    int64 `json:"drops"`
	Delays   int64 `json:"delays"`
	Corrupts int64 `json:"corrupts"`
}

// ChaosError is the synthetic transport error for a dropped request.
type ChaosError struct {
	Peer string
	Seq  uint64
}

func (e *ChaosError) Error() string {
	return fmt.Sprintf("chaos: dropped request to %s (seq %d)", e.Peer, e.Seq)
}

// ChaosTransport is a seeded fault-injecting http.RoundTripper. Build
// with NewChaosTransport and install it as cluster.Config.Transport;
// requests to hosts that are not configured peers pass through clean.
type ChaosTransport struct {
	base  http.RoundTripper
	rules []ChaosRule
	root  *rng.R // forked per decision, never advanced
	epoch time.Time
	now   func() time.Time

	hostPeer map[string]string // URL host -> peer id

	mu  sync.Mutex
	seq map[string]uint64 // per-peer request sequence counter

	drops, delays, corrupts atomic.Int64
}

// NewChaosTransport builds a chaos transport over base (nil means
// http.DefaultTransport) targeting the given peers. The schedule clock
// starts now: rule windows are relative to this call.
func NewChaosTransport(seed uint64, rules []ChaosRule, peers []Peer, base http.RoundTripper) *ChaosTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	t := &ChaosTransport{
		base:     base,
		rules:    rules,
		root:     rng.New(seed),
		epoch:    time.Now(),
		now:      time.Now,
		hostPeer: make(map[string]string, len(peers)),
		seq:      make(map[string]uint64, len(peers)),
	}
	for _, p := range peers {
		if u, err := url.Parse(p.URL); err == nil && u.Host != "" {
			t.hostPeer[u.Host] = p.ID
		}
	}
	return t
}

// Stats returns the injected-fault counters so far.
func (t *ChaosTransport) Stats() ChaosStats {
	return ChaosStats{Drops: t.drops.Load(), Delays: t.delays.Load(), Corrupts: t.corrupts.Load()}
}

type chaosDecision struct {
	drop    bool
	delay   time.Duration
	corrupt bool
}

// decide is the pure injection function: identical (seed, peer, seq,
// rules, elapsed) always yield the identical decision. Each rule draws
// from its own rng.Fork substream keyed by (peer, seq, rule index), so
// no rule's draws shift another's.
func (t *ChaosTransport) decide(peer string, seq uint64, elapsed time.Duration) chaosDecision {
	var d chaosDecision
	r := t.root.Fork(hashKey(peer)).Fork(seq)
	for i, rule := range t.rules {
		if rule.Peer != "*" && rule.Peer != peer {
			continue
		}
		if elapsed < rule.From || (rule.To > 0 && elapsed >= rule.To) {
			continue
		}
		rr := r.Fork(uint64(i))
		if rule.Partition || (rule.Drop > 0 && rr.Float() < rule.Drop) {
			d.drop = true
		}
		if rule.DelayRate > 0 && rr.Float() < rule.DelayRate {
			delay := rule.DelayMin
			if rule.DelayMax > rule.DelayMin {
				delay += time.Duration(rr.Intn(int64(rule.DelayMax - rule.DelayMin)))
			}
			if delay > d.delay {
				d.delay = delay
			}
		}
		if rule.Corrupt > 0 && rr.Float() < rule.Corrupt {
			d.corrupt = true
		}
	}
	return d
}

func (t *ChaosTransport) nextSeq(peer string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.seq[peer]
	t.seq[peer] = s + 1
	return s
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	peer, ok := t.hostPeer[req.URL.Host]
	if !ok {
		return t.base.RoundTrip(req)
	}
	seq := t.nextSeq(peer)
	d := t.decide(peer, seq, t.now().Sub(t.epoch))
	if d.drop {
		if req.Body != nil {
			req.Body.Close()
		}
		t.drops.Add(1)
		return nil, &ChaosError{Peer: peer, Seq: seq}
	}
	if d.delay > 0 {
		t.delays.Add(1)
		timer := time.NewTimer(d.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && d.corrupt {
		t.corrupts.Add(1)
		resp.Body = &corruptReader{rc: resp.Body}
	}
	return resp, err
}

// corruptReader inverts every byte of the wrapped body: same length
// (Content-Length stays honest) but guaranteed-invalid JSON, so every
// internal consumer detects the damage at decode time.
type corruptReader struct{ rc io.ReadCloser }

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	for i := 0; i < n; i++ {
		p[i] ^= 0xFF
	}
	return n, err
}

func (c *corruptReader) Close() error { return c.rc.Close() }

// ParseChaos parses the -chaos flag's schedule spec: semicolon-
// separated rules, each a comma-separated field list:
//
//	peer=<id|*>            target peer (required)
//	from=<dur> to=<dur>    active window [from, to) since startup, with
//	                       to > from (default: from 0, never expires)
//	partition              drop everything in the window
//	drop=<p>               drop probability in [0,1]
//	delay=<p>@<min>-<max>  delay probability and seeded delay range
//	corrupt=<p>            reply-corruption probability in [0,1]
//
// Example: "peer=n2,from=2s,to=8s,partition;peer=n2,from=8s,delay=1@300ms-500ms"
func ParseChaos(spec string) ([]ChaosRule, error) {
	var rules []ChaosRule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		var rule ChaosRule
		for _, field := range strings.Split(rs, ",") {
			field = strings.TrimSpace(field)
			if field == "partition" {
				rule.Partition = true
				continue
			}
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: bad field %q in rule %q", field, rs)
			}
			var err error
			switch k {
			case "peer":
				rule.Peer = v
			case "from":
				rule.From, err = time.ParseDuration(v)
			case "to":
				rule.To, err = time.ParseDuration(v)
			case "drop":
				rule.Drop, err = parseProb(v)
			case "corrupt":
				rule.Corrupt, err = parseProb(v)
			case "delay":
				rate, rng, ok := strings.Cut(v, "@")
				if !ok {
					return nil, fmt.Errorf("chaos: delay wants <p>@<min>-<max>, got %q", v)
				}
				if rule.DelayRate, err = parseProb(rate); err != nil {
					break
				}
				lo, hi, _ := strings.Cut(rng, "-")
				if rule.DelayMin, err = time.ParseDuration(lo); err != nil {
					break
				}
				rule.DelayMax = rule.DelayMin
				if hi != "" {
					rule.DelayMax, err = time.ParseDuration(hi)
				}
			default:
				return nil, fmt.Errorf("chaos: unknown field %q in rule %q", k, rs)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: bad %s in rule %q: %v", k, rs, err)
			}
		}
		if rule.Peer == "" {
			return nil, fmt.Errorf("chaos: rule %q needs peer=<id|*>", rs)
		}
		if rule.DelayMax < rule.DelayMin {
			return nil, fmt.Errorf("chaos: rule %q has delay max < min", rs)
		}
		// decide reads To == 0 as "never expires", so a negative bound
		// or a window that closes before it opens would never fire or
		// never end.
		if rule.From < 0 || rule.To < 0 || (rule.To > 0 && rule.To <= rule.From) {
			return nil, fmt.Errorf("chaos: rule %q has an empty or negative window", rs)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// Written so that NaN, which ParseFloat accepts, fails too.
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}
