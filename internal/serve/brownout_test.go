package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// brownoutClock drives the controller's injected clock.
type brownoutClock struct{ t time.Time }

func (c *brownoutClock) now() time.Time          { return c.t }
func (c *brownoutClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBrownout() (*brownout, *brownoutClock) {
	clk := &brownoutClock{t: time.Unix(1000, 0)}
	b := newBrownout(2*time.Second, 3*time.Second)
	b.now = clk.now
	return b, clk
}

func TestBrownoutEntersOnlyAfterSustainedHigh(t *testing.T) {
	b, clk := newTestBrownout()
	if b.fold(0.9) {
		t.Fatal("brownout active on the first high observation")
	}
	clk.advance(time.Second)
	if b.fold(0.9) {
		t.Fatal("brownout active after 1s of high load (enterAfter = 2s)")
	}
	clk.advance(time.Second)
	if !b.fold(0.9) {
		t.Fatal("brownout not active after 2s of sustained high load")
	}
	st := b.status()
	if !st.Active || st.Entered != 1 {
		t.Fatalf("status = %+v, want active with 1 enter", st)
	}
}

func TestBrownoutBlipResetsPendingEnter(t *testing.T) {
	b, clk := newTestBrownout()
	b.fold(0.9)
	clk.advance(1500 * time.Millisecond)
	b.fold(0.5) // dip below high water: the pending enter resets
	clk.advance(time.Second)
	if b.fold(0.9) {
		t.Fatal("brownout entered across a load dip")
	}
	clk.advance(2 * time.Second)
	if !b.fold(0.9) {
		t.Fatal("brownout never entered after the dip's fresh 2s window")
	}
}

func TestBrownoutExitsHysteretically(t *testing.T) {
	b, clk := newTestBrownout()
	b.fold(0.9)
	clk.advance(2 * time.Second)
	if !b.fold(0.9) {
		t.Fatal("setup: brownout did not enter")
	}
	// Mid-band saturation (above low water) keeps brownout on forever.
	clk.advance(10 * time.Second)
	if !b.fold(0.5) {
		t.Fatal("brownout lifted at mid-band saturation (0.5 > brownoutLowWater)")
	}
	// Low load must hold exitAfter before the mode lifts.
	if !b.fold(0.1) {
		t.Fatal("brownout lifted on the first low observation")
	}
	clk.advance(2 * time.Second)
	if !b.fold(0.1) {
		t.Fatal("brownout lifted after 2s of low load (exitAfter = 3s)")
	}
	clk.advance(time.Second)
	if b.fold(0.1) {
		t.Fatal("brownout still active after 3s of sustained low load")
	}
	st := b.status()
	if st.Active || st.Exited != 1 {
		t.Fatalf("status = %+v, want inactive with 1 exit", st)
	}
}

func TestBrownoutBlipResetsPendingExit(t *testing.T) {
	b, clk := newTestBrownout()
	b.fold(0.9)
	clk.advance(2 * time.Second)
	b.fold(0.9) // enter
	b.fold(0.1)
	clk.advance(2 * time.Second)
	b.fold(0.8) // load returns: the pending exit resets
	clk.advance(2 * time.Second)
	if !b.fold(0.1) {
		t.Fatal("brownout exited across a load spike")
	}
}

// TestBrownoutShedsSSE: an active brownout refuses new event-stream
// subscriptions with 503 + Retry-After while the job API keeps working,
// and the shed shows up on /v2/healthz.
func TestBrownoutShedsSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{BrownoutEnter: time.Millisecond, BrownoutExit: time.Hour})
	if _, err := s.EnableJournal(t.TempDir() + "/wal"); err != nil {
		t.Fatal(err)
	}
	// Force the controller active: saturate the signal past enterAfter.
	s.bo.fold(1)
	time.Sleep(5 * time.Millisecond)
	if !s.bo.fold(1) {
		t.Fatal("setup: brownout did not activate")
	}

	resp, err := http.Get(ts.URL + "/v2/jobs/b-0/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("SSE subscribe under brownout: status %d, want 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if e := envelope(t, body); e.Code != v2CodeUnavailable || e.RetryAfterMS <= 0 {
		t.Errorf("SSE brownout refusal: code %q retry_after_ms %d, want unavailable with a hint", e.Code, e.RetryAfterMS)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("SSE brownout refusal carries no Retry-After")
	}
	if got := s.bo.shedSSE.Load(); got != 1 {
		t.Errorf("shedSSE = %d, want 1", got)
	}

	// The health surface reports the mode and its counters.
	hr, err := http.Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct {
		Brownout *brownoutStatus `json:"brownout"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Brownout == nil || !h.Brownout.Active || h.Brownout.ShedSSE != 1 {
		t.Errorf("healthz brownout = %+v, want active with shed_sse 1", h.Brownout)
	}

	// Real work is not refused: a sync run still executes.
	status, body := postRun(t, ts.URL, sorRun)
	if status != http.StatusOK {
		t.Errorf("sync run under brownout: status %d: %s", status, body)
	}
}

// TestBrownoutShedsMetrics: execution under brownout skips metrics
// collection and counts the shed; the simulation result is unaffected.
func TestBrownoutShedsMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{BrownoutEnter: time.Millisecond, BrownoutExit: time.Hour})
	s.bo.fold(1)
	time.Sleep(5 * time.Millisecond)
	s.bo.fold(1)

	body := strings.Replace(sorRun, `{"app"`, `{"metrics":true,"app"`, 1)
	status, raw := postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("run: status %d: %s", status, raw)
	}
	var out RunResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Metrics != nil {
		t.Error("metrics were collected under brownout")
	}
	if got := s.bo.shedMetrics.Load(); got != 1 {
		t.Errorf("shedMetrics = %d, want 1", got)
	}
}

func TestBrownoutDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{BrownoutEnter: -1})
	if s.bo != nil {
		t.Fatal("brownout controller built with BrownoutEnter < 0")
	}
	if s.brownedOut() {
		t.Fatal("disabled brownout reports active")
	}
}

// TestGateDoomedRejection: a request whose deadline cannot cover the
// estimated queue wait is refused with ErrDoomed instead of being
// queued into a certain 504.
func TestGateDoomedRejection(t *testing.T) {
	g := newGate(1, 8)
	g.svcNS.Store((100 * time.Millisecond).Nanoseconds())

	// Occupy the only worker slot.
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// 10ms of deadline against a ~100ms estimated wait: doomed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(ctx, true); err != ErrDoomed {
		t.Fatalf("acquire with an unmeetable deadline: err = %v, want ErrDoomed", err)
	}
	if got := g.Doomed(); got != 1 {
		t.Fatalf("doomed = %d, want 1", got)
	}

	// A deadline with room to spare is admitted (it queues).
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		rel, err := g.Acquire(ctx2)
		if err == nil {
			rel()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	release() // free the slot; the queued request proceeds
	if err := <-done; err != nil {
		t.Fatalf("roomy-deadline acquire: %v", err)
	}

	// AcquireWait never sheds: durable work waits instead.
	release, err = g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx3, cancel3 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel3()
	if _, err := g.AcquireWait(ctx3); err != context.DeadlineExceeded {
		t.Fatalf("AcquireWait: err = %v, want DeadlineExceeded (waited, not shed)", err)
	}
	release()
}

// TestDoomedRequestGets429: the HTTP surface of the shed — an admitted-
// but-doomed request is answered 429 deadline_unreachable, not 504.
func TestDoomedRequestGets429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.gate.svcNS.Store((2 * time.Second).Nanoseconds())
	release, err := s.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	body := strings.Replace(sorRun, `{"app"`, `{"timeout_ms":50,"app"`, 1)
	status, raw := postRun(t, ts.URL, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("doomed run: status %d: %s, want 429", status, raw)
	}
	er := envelope(t, raw)
	if er.Code != v2CodeDoomed || !strings.Contains(er.Message, "deadline") || er.RetryAfterMS <= 0 {
		t.Errorf("doomed error %s %q (retry_after_ms %d), want deadline_unreachable mentioning the deadline, with a hint",
			er.Code, er.Message, er.RetryAfterMS)
	}
	if got := s.gate.Doomed(); got == 0 {
		t.Error("doomed counter not bumped")
	}
}
