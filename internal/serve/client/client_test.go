package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// rejectThenServe answers n rejections (status, with the given headers
// and body) before succeeding with 200 {"id":"j1","status":"done"}.
func rejectThenServe(n int, status int, hdr http.Header, body string) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(n) {
			for k, vs := range hdr {
				for _, v := range vs {
					w.Header().Set(k, v)
				}
			}
			w.WriteHeader(status)
			fmt.Fprint(w, body)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"job_id":"j1","status":"done"}`)
	}))
	return ts, &hits
}

func TestClientRetriesOn429WithServerHint(t *testing.T) {
	ts, hits := rejectThenServe(2, http.StatusTooManyRequests, nil,
		`{"error":{"code":"rate_limited","message":"slow down","retry_after_ms":5}}`)
	defer ts.Close()

	c := New(ts.URL)
	start := time.Now()
	job, err := c.GetJob(context.Background(), "j1")
	if err != nil {
		t.Fatalf("GetJob: %v", err)
	}
	if job.JobID != "j1" {
		t.Fatalf("job = %+v", job)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejections + success)", got)
	}
	// The server said 5ms; honoring the hint means not falling back to
	// the ~500ms+ default backoff.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retries took %v — the server's 5ms hint was ignored", elapsed)
	}
}

func TestClientRetryAfterHeaderFallback(t *testing.T) {
	// A rejection from a proxy in front of the server: no envelope,
	// just the Retry-After header.
	hdr := http.Header{"Retry-After": []string{"1"}}
	ts, _ := rejectThenServe(1, http.StatusServiceUnavailable, hdr, "draining")
	defer ts.Close()

	c := New(ts.URL)
	c.MaxRetries = -1 // single attempt: inspect the decoded error
	_, err := c.GetJob(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", apiErr.Status)
	}
	if apiErr.RetryAfterMS != 1000 {
		t.Fatalf("RetryAfterMS = %d, want 1000 (from the Retry-After header)", apiErr.RetryAfterMS)
	}
}

func TestClientRetriesDisabled(t *testing.T) {
	ts, hits := rejectThenServe(1, http.StatusTooManyRequests, nil,
		`{"error":{"code":"rate_limited","message":"no","retry_after_ms":1}}`)
	defer ts.Close()

	c := New(ts.URL)
	c.MaxRetries = -1
	if _, err := c.GetJob(context.Background(), "j1"); err == nil {
		t.Fatal("rejection succeeded with retries disabled")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests with retries disabled, want 1", got)
	}
}

func TestClientRetryBudgetExhausts(t *testing.T) {
	ts, hits := rejectThenServe(100, http.StatusTooManyRequests, nil,
		`{"error":{"code":"rate_limited","message":"no","retry_after_ms":1}}`)
	defer ts.Close()

	c := New(ts.URL)
	c.MaxRetries = 2
	_, err := c.GetJob(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the final 429", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + 2 retries)", got)
	}
}

func TestClientNeverSleepsPastDeadline(t *testing.T) {
	// The server's hint (10s) cannot be honored inside the 50ms budget:
	// the rejection must come back immediately, not after the deadline.
	ts, hits := rejectThenServe(100, http.StatusTooManyRequests, nil,
		`{"error":{"code":"rate_limited","message":"later","retry_after_ms":10000}}`)
	defer ts.Close()

	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.GetJob(ctx, "j1")
	elapsed := time.Since(start)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want the server's rejection (not a context error)", err)
	}
	if elapsed > 40*time.Millisecond {
		t.Errorf("client waited %v against an unhonorable hint", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (no retry fits the deadline)", got)
	}
}

func TestClientNonRetryableErrorIsImmediate(t *testing.T) {
	ts, hits := rejectThenServe(100, http.StatusBadRequest, nil,
		`{"error":{"code":"bad_request","message":"no such app"}}`)
	defer ts.Close()

	c := New(ts.URL)
	_, err := c.GetJob(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_request" {
		t.Fatalf("err = %v, want the 400", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a 400, want 1", got)
	}
}
