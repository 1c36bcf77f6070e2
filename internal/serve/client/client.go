// Package client is the minimal Go client of the mtsimd /v2 API
// (api/openapi.yaml): submit jobs, read them back, wait for results,
// and tail the SSE progress stream with exact Last-Event-ID resume.
// The chaos harness drives real daemon fleets through it instead of
// hand-rolled HTTP, so the client is exercised against every failure
// mode the harness injects (crashes, failover, spliced streams).
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mtsim/internal/serve"
)

// Client talks to one mtsimd base URL (any node of a fleet: the ring
// forwards). The zero HTTPClient means http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey, when set, is sent as "Authorization: Bearer <APIKey>" and
	// resolves the tenant server-side.
	APIKey string
	// Tenant, when set (and no APIKey), is sent as X-Tenant-ID.
	Tenant string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds how many times a request rejected with 429 or
	// 503 is retried, pacing by the server's Retry-After hint (the
	// envelope's retry_after_ms, or the Retry-After header) and falling
	// back to serve.RetryDelay jittered exponential backoff when the
	// server sent none. 0 means the default (3); negative disables
	// retries. A retry never sleeps past the request context's
	// deadline: if the server's hint cannot be honored in time, the
	// rejection is returned immediately instead.
	MaxRetries int
}

// defaultMaxRetries is the retry budget when Client.MaxRetries is 0.
const defaultMaxRetries = 3

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return defaultMaxRetries
	default:
		return c.MaxRetries
	}
}

// New returns a client for baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(baseURL, "/")}
}

// APIError is a non-2xx /v2 reply, decoded from the uniform envelope.
type APIError struct {
	Status       int
	Code         string
	Message      string
	RetryAfterMS int64
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mtsimd: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Event is one SSE frame of a job's progress stream.
type Event struct {
	// ID is the resume cursor ("<entry>-<cycle>" on checkpoint events,
	// empty on status/done).
	ID string
	// Type is "status", "checkpoint" or "done".
	Type string
	// Data is the frame's JSON payload.
	Data json.RawMessage
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// setIdentity attaches the tenant identity headers.
func (c *Client) setIdentity(req *http.Request) {
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	} else if c.Tenant != "" {
		req.Header.Set("X-Tenant-ID", c.Tenant)
	}
}

// decodeError turns a non-2xx reply into an *APIError. Every error body
// mtsimd writes is the envelope, but a proxy in front of it may answer
// with a body of its own: then the code is "unknown", and when no
// retry_after_ms was read the Retry-After header (whole seconds) fills
// it in, so such rejections pace retries too.
func decodeError(resp *http.Response, body []byte) error {
	out := &APIError{Status: resp.StatusCode, Code: "unknown",
		Message: strings.TrimSpace(string(body))}
	var env serve.V2Error
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		out.Code, out.Message = env.Error.Code, env.Error.Message
		out.RetryAfterMS = env.Error.RetryAfterMS
	}
	if out.RetryAfterMS == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			out.RetryAfterMS = int64(secs) * 1000
		}
	}
	return out
}

// retryable reports whether err is a server rejection worth retrying:
// 429 (queue full, quota, doomed deadline) or 503 (draining, brownout).
func retryable(err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Status == http.StatusTooManyRequests ||
		apiErr.Status == http.StatusServiceUnavailable
}

// retryPause picks the wait before retry number attempt (0-based):
// the server's hint when it sent one, else decorrelated exponential
// backoff.
func retryPause(err error, attempt int) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfterMS > 0 {
		return time.Duration(apiErr.RetryAfterMS) * time.Millisecond
	}
	return serve.RetryDelay(attempt, time.Second)
}

// do runs one JSON round trip, retrying server rejections (429/503)
// up to maxRetries times at the server's suggested pace. out may be
// nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any, extra http.Header) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = b
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, payload, out, extra)
		if err == nil || !retryable(err) || attempt >= c.maxRetries() {
			return err
		}
		lastErr = err
		pause := retryPause(err, attempt)
		// Never sleep past the caller's deadline: a retry that cannot
		// land in time is worse than handing back the rejection now
		// (the caller may have another node to try).
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < pause {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(pause):
		}
	}
}

// doOnce is a single attempt of do.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any, extra http.Header) error {
	var body io.Reader
	if payload != nil {
		body = strings.NewReader(string(payload))
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	c.setIdentity(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// SubmitJob posts one job request (run or batch). idempotencyKey, when
// non-empty, is sent as the Idempotency-Key header, making a batch
// durable and async on a journaling server.
func (c *Client) SubmitJob(ctx context.Context, req *serve.V2JobRequest, idempotencyKey string) (*serve.V2Job, error) {
	var extra http.Header
	if idempotencyKey != "" {
		extra = http.Header{"Idempotency-Key": []string{idempotencyKey}}
	}
	var job serve.V2Job
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", req, &job, extra); err != nil {
		return nil, err
	}
	return &job, nil
}

// SubmitBatch is SubmitJob for a batch body.
func (c *Client) SubmitBatch(ctx context.Context, batch *serve.BatchRequest, idempotencyKey string) (*serve.V2Job, error) {
	return c.SubmitJob(ctx, &serve.V2JobRequest{Batch: batch}, idempotencyKey)
}

// Run executes one simulation synchronously and decodes the job's
// result document.
func (c *Client) Run(ctx context.Context, run *serve.RunRequest) (*serve.RunResponse, error) {
	job, err := c.SubmitJob(ctx, &serve.V2JobRequest{Run: run}, "")
	if err != nil {
		return nil, err
	}
	var out serve.RunResponse
	if err := json.Unmarshal(job.Result, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetJob reads the job resource.
func (c *Client) GetJob(ctx context.Context, id string) (*serve.V2Job, error) {
	var job serve.V2Job
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+id, nil, &job, nil); err != nil {
		return nil, err
	}
	return &job, nil
}

// WaitJob polls the job until it is done (pacing by the server's
// retry_after_ms hint, floored at 10ms) and returns its result
// document's bytes. Transport errors are returned to
// the caller, who may retry against another node of a fleet.
func (c *Client) WaitJob(ctx context.Context, id string) (json.RawMessage, error) {
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.Status == serve.JobDone {
			return job.Result, nil
		}
		pause := time.Duration(job.RetryAfterMS) * time.Millisecond
		if pause < 10*time.Millisecond {
			pause = 10 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pause):
		}
	}
}

// Healthz is the decoded GET /v2/healthz body (the fields the harness
// and operators assert on).
type Healthz struct {
	Schema  int                 `json:"schema"`
	Status  string              `json:"status"`
	Tenants []serve.TenantUsage `json:"tenants"`
}

// GetHealthz reads /v2/healthz.
func (c *Client) GetHealthz(ctx context.Context) (*Healthz, error) {
	var h Healthz
	if err := c.do(ctx, http.MethodGet, "/v2/healthz", nil, &h, nil); err != nil {
		return nil, err
	}
	return &h, nil
}

// ErrStreamEnded reports that an event stream closed after the job's
// `done` event — the normal end of a stream.
var ErrStreamEnded = errors.New("client: event stream ended (job done)")

// StreamEvents tails GET /v2/jobs/{id}/events from lastEventID (""
// = the start), invoking fn per frame. It returns ErrStreamEnded after
// the done event, or the transport/parse error that broke the stream —
// the caller resumes by calling again with the last checkpoint ID it
// saw (exact resume is the server's contract). fn returning an error
// stops the stream with that error.
func (c *Client) StreamEvents(ctx context.Context, id, lastEventID string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	req.Header.Set("Accept", "text/event-stream")
	c.setIdentity(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return decodeError(resp, raw)
	}
	var ev Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Type != "" {
				done := ev.Type == "done"
				if err := fn(ev); err != nil {
					return err
				}
				if done {
					return ErrStreamEnded
				}
			}
			ev = Event{}
		case strings.HasPrefix(line, "id: "):
			ev.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF // stream closed without a done event
}
