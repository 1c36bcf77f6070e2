package serve

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"mtsim/internal/cluster"
)

// Hedged forwarding applies the paper's latency-hiding move to the
// fleet's own reads: instead of stalling on one slow peer, issue the
// same idempotent request to the next ring successor after a
// latency-percentile-derived delay and take the first success. Hedging
// is restricted to forwarded GETs (job status and the like — reruns
// are free because every node serving the job answers from the same
// deterministic state), paced by a token budget so hedges can never
// exceed a fixed fraction of forward traffic, and doubles as a gray-
// failure detector: a primary that keeps losing to its hedge is
// reported to its circuit breaker as failing, which eventually routes
// reads away from it entirely.

// The clamp of the hedge delay a cluster node derives from its forward
// latencies.
const (
	hedgeDelayMin = 10 * time.Millisecond
	hedgeDelayMax = 2 * time.Second
)

// latencyTracker keeps a ring of recent forward latencies and derives
// the hedge delay from their p95, clamped to [min, max].
type latencyTracker struct {
	min, max time.Duration

	mu  sync.Mutex
	buf [128]time.Duration
	n   int // samples stored (caps at len(buf))
	idx int // next write position
}

func newLatencyTracker(min, max time.Duration) *latencyTracker {
	return &latencyTracker{min: min, max: max}
}

func (lt *latencyTracker) observe(d time.Duration) {
	lt.mu.Lock()
	lt.buf[lt.idx] = d
	lt.idx = (lt.idx + 1) % len(lt.buf)
	if lt.n < len(lt.buf) {
		lt.n++
	}
	lt.mu.Unlock()
}

// percentile returns the p-quantile (0 < p <= 1) of the stored window,
// or 0 with no samples.
func (lt *latencyTracker) percentile(p float64) time.Duration {
	lt.mu.Lock()
	samples := make([]time.Duration, lt.n)
	copy(samples, lt.buf[:lt.n])
	lt.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(p*float64(len(samples))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

// hedgeDelay is how long the primary gets before a hedge fires.
func (lt *latencyTracker) hedgeDelay() time.Duration {
	d := lt.percentile(0.95)
	if d < lt.min {
		d = lt.min
	}
	if d > lt.max {
		d = lt.max
	}
	return d
}

// hedgeBudget is a token bucket that caps hedges at a fixed fraction
// of forward traffic: every hedge-eligible request earns `fraction`
// tokens, every fired hedge spends one, and the balance is capped so
// an idle period cannot bank an unbounded burst.
type hedgeBudget struct {
	mu       sync.Mutex
	tokens   float64
	burst    float64
	fraction float64
}

func newHedgeBudget(fraction float64) *hedgeBudget {
	return &hedgeBudget{fraction: fraction, burst: 8, tokens: 1}
}

func (hb *hedgeBudget) earn() {
	hb.mu.Lock()
	if hb.tokens += hb.fraction; hb.tokens > hb.burst {
		hb.tokens = hb.burst
	}
	hb.mu.Unlock()
}

func (hb *hedgeBudget) spend() bool {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if hb.tokens < 1 {
		return false
	}
	hb.tokens--
	return true
}

// noForwardPeersMsg is the 503 message of a hedged read whose candidate
// peers all failed or sit behind open breakers.
const noForwardPeersMsg = "serve: no reachable peer for forwarded request"

// hedgedForward proxies an idempotent read to cands in ring order with
// hedging: the primary goes out immediately, and if it has not
// answered within the tracker's hedge delay (and the budget allows), a
// hedge goes to the next candidate; the first acceptable response is
// relayed and the loser is canceled. Transport failures fail over to
// the next candidate immediately — that path needs no budget.
func (s *Server) hedgedForward(w http.ResponseWriter, r *http.Request, cands []cluster.Peer, body []byte) {
	node := s.cluster.node
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	type outcome struct {
		peer  cluster.Peer
		hedge bool
		res   *forwardResult
		err   error
	}
	// Buffered so a canceled loser's goroutine can always deliver and
	// exit, even after this handler has returned.
	results := make(chan outcome, len(cands))
	next := 0
	launch := func(hedge bool) bool {
		for next < len(cands) {
			p := cands[next]
			next++
			if b := node.Breaker(p.ID); b != nil && !b.Allow() {
				continue
			}
			go func() {
				start := time.Now()
				res, err := s.forwardOnce(ctx, r, p, body)
				if err == nil {
					s.cluster.lat.observe(time.Since(start))
				}
				results <- outcome{peer: p, hedge: hedge, res: res, err: err}
			}()
			return true
		}
		return false
	}

	s.cluster.budget.earn()
	if !launch(false) {
		s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, noForwardPeersMsg)
		return
	}
	primary := cands[next-1].ID

	var timerC <-chan time.Time
	if next < len(cands) {
		t := time.NewTimer(s.cluster.lat.hedgeDelay())
		defer t.Stop()
		timerC = t.C
	}

	pending := 1
	var fallback *outcome // a hedge's non-2xx response, served only as a last resort
	for pending > 0 {
		select {
		case <-r.Context().Done():
			s.v2HTTPError(w, r.Context().Err())
			return
		case <-timerC:
			timerC = nil
			if s.cluster.budget.spend() && launch(true) {
				s.cluster.hedges.Add(1)
			} else {
				continue
			}
			pending++
		case o := <-results:
			pending--
			node.ReportPeer(o.peer.ID, o.err == nil)
			switch {
			case o.err == nil && (!o.hedge || o.res.resp.StatusCode/100 == 2):
				if o.hedge {
					s.cluster.hedgeWins.Add(1)
					// The primary lost to its hedge: slowness is failure
					// evidence too, and a peer that keeps losing trips its
					// breaker even though every reply eventually succeeds.
					node.ReportPeer(primary, false)
				}
				cancel() // release the loser before relaying
				s.relayForwardResult(w, o.res)
				s.cluster.forwards.Add(1)
				return
			case o.err == nil:
				// Hedge answered with a non-2xx (e.g. a successor that holds
				// no replica answering 404): keep waiting for the primary.
				if fallback == nil {
					fallback = &o
				}
			default:
				// Transport failure: fail over to the next candidate
				// immediately (no budget needed; the peer is not slow, it
				// is unreachable).
				if launch(o.hedge) {
					pending++
					if !o.hedge {
						primary = cands[next-1].ID
					}
				}
			}
		}
	}
	if fallback != nil {
		s.relayForwardResult(w, fallback.res)
		s.cluster.forwards.Add(1)
		return
	}
	s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, noForwardPeersMsg)
}
