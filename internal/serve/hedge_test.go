package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mtsim/internal/cluster"
)

func TestLatencyTrackerPercentile(t *testing.T) {
	lt := newLatencyTracker(10*time.Millisecond, 2*time.Second)
	if got := lt.percentile(0.95); got != 0 {
		t.Fatalf("empty tracker p95 = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		lt.observe(time.Duration(i) * time.Millisecond)
	}
	if got := lt.percentile(0.95); got != 95*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want 95ms", got)
	}
	if got := lt.percentile(0.5); got != 50*time.Millisecond {
		t.Fatalf("p50 of 1..100ms = %v, want 50ms", got)
	}
}

func TestLatencyTrackerWindowSlides(t *testing.T) {
	lt := newLatencyTracker(0, time.Hour)
	// Fill the ring with slow samples, then overwrite with fast ones:
	// the old regime must age out entirely.
	for i := 0; i < 128; i++ {
		lt.observe(time.Second)
	}
	for i := 0; i < 128; i++ {
		lt.observe(time.Millisecond)
	}
	if got := lt.percentile(0.95); got != time.Millisecond {
		t.Fatalf("p95 after window slid = %v, want 1ms", got)
	}
}

func TestLatencyTrackerHedgeDelayClamped(t *testing.T) {
	lt := newLatencyTracker(10*time.Millisecond, 100*time.Millisecond)
	if got := lt.hedgeDelay(); got != 10*time.Millisecond {
		t.Fatalf("no-sample hedge delay = %v, want the 10ms floor", got)
	}
	for i := 0; i < 128; i++ {
		lt.observe(10 * time.Second)
	}
	if got := lt.hedgeDelay(); got != 100*time.Millisecond {
		t.Fatalf("slow-regime hedge delay = %v, want the 100ms ceiling", got)
	}
}

func TestHedgeBudgetBoundsFraction(t *testing.T) {
	hb := newHedgeBudget(0.1)
	spent := 0
	for i := 0; i < 1000; i++ {
		hb.earn()
		if hb.spend() {
			spent++
		}
	}
	// 0.1 earned per request, plus the initial token and up to a burst
	// of banked credit: ~10% of traffic, never wildly more.
	if spent < 90 || spent > 110 {
		t.Fatalf("spent %d hedges over 1000 requests at fraction 0.1", spent)
	}
}

func TestHedgeBudgetBurstCap(t *testing.T) {
	hb := newHedgeBudget(1)
	for i := 0; i < 1000; i++ {
		hb.earn() // a long idle-earn period banks at most `burst` tokens
	}
	spent := 0
	for hb.spend() {
		spent++
	}
	if spent != 8 {
		t.Fatalf("burst allowed %d back-to-back hedges, want 8", spent)
	}
}

// hedgeTestServer builds an unstarted cluster runtime around a set of
// fake peers, so hedgedForward can be driven directly.
func hedgeTestServer(t *testing.T, peers []cluster.Peer) *Server {
	t.Helper()
	all := append([]cluster.Peer{{ID: "self", URL: "http://127.0.0.1:1"}}, peers...)
	node, err := cluster.New(cluster.Config{
		Self: "self", Peers: all,
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.cluster = &clusterRuntime{
		node:   node,
		fwd:    &http.Client{},
		xfer:   &http.Client{Timeout: 15 * time.Second},
		lat:    newLatencyTracker(20*time.Millisecond, time.Second),
		budget: newHedgeBudget(0.1),
	}
	return s
}

func TestHedgedForwardSlowPrimary(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		io.WriteString(w, `{"from":"slow"}`)
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"from":"fast"}`)
	}))
	defer fast.Close()

	cands := []cluster.Peer{{ID: "p1", URL: slow.URL}, {ID: "p2", URL: fast.URL}}
	s := hedgeTestServer(t, cands)

	req := httptest.NewRequest(http.MethodGet, "/v2/jobs/j1", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.hedgedForward(rec, req, cands, nil)
	elapsed := time.Since(start)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != `{"from":"fast"}` {
		t.Fatalf("body %q, want the hedge's reply", got)
	}
	// The hedge fires at the 20ms floor; winning means not waiting out
	// the primary's full 400ms.
	if elapsed >= 400*time.Millisecond {
		t.Errorf("hedged read took %v — it waited for the slow primary", elapsed)
	}
	if got := s.cluster.hedgeWins.Load(); got != 1 {
		t.Errorf("hedgeWins = %d, want 1", got)
	}
	// Losing to its hedge is failure evidence: with threshold 1 the
	// primary's breaker must now be open.
	if st := s.cluster.node.Breaker("p1").State(); st != cluster.BreakerOpen {
		t.Errorf("slow primary's breaker = %q, want open after losing to a hedge", st)
	}
	if st := s.cluster.node.Breaker("p2").State(); st != cluster.BreakerClosed {
		t.Errorf("hedge winner's breaker = %q, want closed", st)
	}
}

func TestHedgedForwardFailoverOnTransportError(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"from":"fast"}`)
	}))
	defer fast.Close()

	// p1's port is reserved but nothing listens: instant transport error.
	dead := "http://" + freeLoopbackAddr(t)
	cands := []cluster.Peer{{ID: "p1", URL: dead}, {ID: "p2", URL: fast.URL}}
	s := hedgeTestServer(t, cands)
	// Drain the budget: failover must not need hedge tokens.
	for s.cluster.budget.spend() {
	}

	req := httptest.NewRequest(http.MethodGet, "/v2/jobs/j1", nil)
	rec := httptest.NewRecorder()
	s.hedgedForward(rec, req, cands, nil)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != `{"from":"fast"}` {
		t.Fatalf("body %q, want the failover target's reply", got)
	}
	if got := s.cluster.hedges.Load(); got != 0 {
		t.Errorf("hedges = %d for a transport failover, want 0", got)
	}
	if st := s.cluster.node.Breaker("p1").State(); st != cluster.BreakerOpen {
		t.Errorf("unreachable peer's breaker = %q, want open", st)
	}
}

// requireUnavailable fails unless rec holds a 503 whose body is the
// error envelope with code unavailable and a come-back hint.
func requireUnavailable(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every peer down, want 503: %s", rec.Code, rec.Body)
	}
	if e := envelope(t, rec.Body.Bytes()); e.Code != v2CodeUnavailable || e.RetryAfterMS <= 0 {
		t.Errorf("code %q retry_after_ms %d with every peer down, want unavailable with a hint", e.Code, e.RetryAfterMS)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without a Retry-After header")
	}
}

func TestHedgedForwardAllPeersDown(t *testing.T) {
	dead1 := "http://" + freeLoopbackAddr(t)
	dead2 := "http://" + freeLoopbackAddr(t)
	cands := []cluster.Peer{{ID: "p1", URL: dead1}, {ID: "p2", URL: dead2}}
	s := hedgeTestServer(t, cands)

	req := httptest.NewRequest(http.MethodGet, "/v2/jobs/j1", nil)
	rec := httptest.NewRecorder()
	s.hedgedForward(rec, req, cands, nil)
	requireUnavailable(t, rec)
}

// TestForwardToAllPeersDown: a forwarded submission whose peers are all
// unreachable is a 503 the client can read and pace its retry by.
func TestForwardToAllPeersDown(t *testing.T) {
	cands := []cluster.Peer{{ID: "p1", URL: "http://" + freeLoopbackAddr(t)}, {ID: "p2", URL: "http://" + freeLoopbackAddr(t)}}
	s := hedgeTestServer(t, cands)

	body := []byte(`{"run":` + sorRun + `}`)
	req := httptest.NewRequest(http.MethodPost, "/v2/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.forwardTo(rec, req, cands, body)
	requireUnavailable(t, rec)
}

func TestHedgedForwardNon2xxHedgeIsFallbackOnly(t *testing.T) {
	// Primary is slow but correct; the hedge answers 404 (a successor
	// with no replica). The 404 must not preempt the primary's 200.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		io.WriteString(w, `{"from":"slow"}`)
	}))
	defer slow.Close()
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"not_found","message":"unknown job id"}}`, http.StatusNotFound)
	}))
	defer notFound.Close()

	cands := []cluster.Peer{{ID: "p1", URL: slow.URL}, {ID: "p2", URL: notFound.URL}}
	s := hedgeTestServer(t, cands)

	req := httptest.NewRequest(http.MethodGet, "/v2/jobs/j1", nil)
	rec := httptest.NewRecorder()
	s.hedgedForward(rec, req, cands, nil)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the slow primary's 200", rec.Code)
	}
	if got := rec.Body.String(); got != `{"from":"slow"}` {
		t.Fatalf("body %q, want the primary's reply", got)
	}
}

// TestForwardToCallerCancel: a caller that goes away mid-forward must
// not burn the remaining retry attempts against the peer (satellite
// regression: the backoff selects on the caller's context).
func TestForwardToCallerCancel(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(50 * time.Millisecond)
		http.Error(w, "busy", http.StatusInternalServerError)
	}))
	defer backend.Close()

	cands := []cluster.Peer{{ID: "p1", URL: backend.URL}}
	s := hedgeTestServer(t, cands)

	req := httptest.NewRequest(http.MethodGet, "/v2/jobs/j1", nil)
	ctx, cancel := context.WithCancel(req.Context())
	req = req.WithContext(ctx)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	rec := httptest.NewRecorder()
	start := time.Now()
	s.forwardTo(rec, req, cands, nil)
	elapsed := time.Since(start)

	// RetryDelay(0) alone is >= 500ms; returning well under that means
	// the backoff observed the canceled context instead of sleeping.
	if elapsed > 400*time.Millisecond {
		t.Fatalf("forwardTo ran %v after its caller canceled", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d after caller cancel, want 503", rec.Code)
	}
	if got := hits.Load(); got > 1 {
		t.Errorf("backend saw %d attempts from a canceled caller, want at most 1", got)
	}
}
