package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mtsim/internal/cluster"
	"mtsim/internal/machine"
)

// The client API, built around three invariants:
//
//   - one error envelope everywhere:
//     {"error":{"code","message","retry_after_ms"}}. Every error body
//     the server writes, the cluster routes' included, goes through
//     writeV2Error;
//   - tenant and quota fields in every response;
//   - one job resource under /v2/jobs: POST runs a simulation (a sync
//     run or batch completes inline as a degenerate, already-done job;
//     an Idempotency-Key on a journaling server makes it a durable
//     async job), GET /v2/jobs/{id} reads it back, and
//     GET /v2/jobs/{id}/events streams its progress.
//
// A done job embeds its result document (RunResponse, BatchResponse,
// or a failed async job's errorResponse) as its `result` field. A sync
// and an async job of the same batch render the same document, so
// their `result` bytes are equal.

// V2SchemaVersion identifies the /v2 JSON layout.
const V2SchemaVersion = 2

// v2 error codes — the machine-readable half of the error envelope.
const (
	v2CodeBadRequest    = "bad_request"
	v2CodeUnauthorized  = "unauthorized"
	v2CodeNotFound      = "not_found"
	v2CodeQuotaExceeded = "quota_exceeded"
	v2CodeQueueFull     = "queue_full"
	v2CodeDoomed        = "deadline_unreachable"
	v2CodeTimeout       = "timeout"
	v2CodeUnavailable   = "unavailable"
	v2CodeMaxCycles     = "max_cycles"
	v2CodeInternal      = "internal"
)

// V2Error is the uniform /v2 failure body.
type V2Error struct {
	Error V2ErrorBody `json:"error"`
}

// V2ErrorBody carries the code, a human-readable message, and (on
// retryable rejections) a jittered come-back hint.
type V2ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// V2Quota reports the caller's admission quota state (absent when the
// tenant is unlimited).
type V2Quota struct {
	RatePerS  float64 `json:"rate_per_s"`
	Burst     int     `json:"burst"`
	Remaining int64   `json:"remaining"`
}

// V2Job is the job resource: every /v2/jobs response body. A sync run
// is a degenerate job — no id, status "done", result inline. Result
// embeds the result document (RunResponse or BatchResponse).
type V2Job struct {
	Schema       int             `json:"schema"`
	JobID        string          `json:"job_id,omitempty"`
	Tenant       string          `json:"tenant"`
	Quota        *V2Quota        `json:"quota,omitempty"`
	Status       string          `json:"status"`
	Checkpoint   int64           `json:"checkpoint,omitempty"`
	Progress     int64           `json:"progress,omitempty"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Result       json.RawMessage `json:"result,omitempty"`
}

// V2JobRequest is the POST /v2/jobs body: exactly one of Run or Batch.
// An Idempotency-Key (header wins over the field) on a journaling
// server makes a Batch durable and async.
type V2JobRequest struct {
	Run            *RunRequest   `json:"run,omitempty"`
	Batch          *BatchRequest `json:"batch,omitempty"`
	IdempotencyKey string        `json:"idempotency_key,omitempty"`
}

// marshalCompact renders v on one line (SSE data and nothing else; the
// response bodies keep encodeJSON's indented layout).
func marshalCompact(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// writeV2Error emits the uniform envelope. 429 and 503 also carry the
// standard Retry-After header mirroring retry_after_ms, rounded up to
// whole seconds so a client honouring the header never returns early.
func (s *Server) writeV2Error(w http.ResponseWriter, status int, code, msg string) {
	s.writeV2ErrorRetry(w, status, code, msg, 0)
}

func (s *Server) writeV2ErrorRetry(w http.ResponseWriter, status int, code, msg string, retryMS int64) {
	if retryMS == 0 && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		retryMS = retryAfterMS(retryAfterBase)
	}
	if retryMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMS+999)/1000, 10))
	}
	writeJSON(w, status, &V2Error{Error: V2ErrorBody{Code: code, Message: msg, RetryAfterMS: retryMS}})
}

// v2HTTPError maps an execution error onto the envelope: a shed is a
// 429, a deadline a 504, a gone client a 503, a cycle-budget overrun a
// 422, anything else a 500.
func (s *Server) v2HTTPError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.writeV2Error(w, http.StatusTooManyRequests, v2CodeQueueFull, err.Error())
	case errors.Is(err, ErrDoomed):
		// Deadline-aware shed: a 429 the client can retry with a longer
		// deadline (or elsewhere), instead of a 504 after the wait.
		s.writeV2Error(w, http.StatusTooManyRequests, v2CodeDoomed, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.writeV2Error(w, http.StatusGatewayTimeout, v2CodeTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, err.Error())
	case errors.Is(err, machine.ErrMaxCycles):
		s.writeV2Error(w, http.StatusUnprocessableEntity, v2CodeMaxCycles, err.Error())
	default:
		s.writeV2Error(w, http.StatusInternalServerError, v2CodeInternal, err.Error())
	}
}

// v2Quota snapshots a tenant's quota for response bodies (nil when
// unlimited).
func v2Quota(t *tenant) *V2Quota {
	if t == nil || t.bucket == nil {
		return nil
	}
	return &V2Quota{
		RatePerS:  t.bucket.rate,
		Burst:     int(t.bucket.burst),
		Remaining: t.bucket.remaining(),
	}
}

// admitTenant resolves the request's tenant and charges its admission
// quota, writing the rejection itself when the request may not
// proceed. Forwarded requests are not re-charged — the node that
// fronted the request already was.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	t, ok := s.tenants.resolve(r)
	if !ok {
		s.writeV2Error(w, http.StatusUnauthorized, v2CodeUnauthorized, "unknown API key")
		return nil, false
	}
	if r.Header.Get(forwardHeader) != "" {
		return t, true
	}
	if ok, retry := t.bucket.take(); !ok {
		msg := fmt.Sprintf("tenant %q admission quota exceeded; retry later", t.name)
		s.writeV2ErrorRetry(w, http.StatusTooManyRequests, v2CodeQuotaExceeded, msg, retry.Milliseconds())
		return nil, false
	}
	return t, true
}

// handleJobs is POST /v2/jobs: one entry point for sync runs, sync
// batches, and durable async batches.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	t, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	var req V2JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	if (req.Run == nil) == (req.Batch == nil) {
		s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, "exactly one of run or batch must be set")
		return
	}

	// Sync run: the degenerate job, its result document inline.
	if req.Run != nil {
		scale, a, cfg, verr := s.validateRun(req.Run)
		if verr != nil {
			s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, verr.Error())
			return
		}
		if s.forwardIfRemote(w, r, cluster.SessionRouteKey(sessionKey(scale, req.Run.Metrics)), body) {
			return
		}
		ctx, cancel := s.requestContext(r, req.Run.TimeoutMS)
		defer cancel()
		resp, err := s.execRun(ctx, t, scale, a, cfg, req.Run.Metrics)
		if err != nil {
			s.v2HTTPError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, &V2Job{
			Schema: V2SchemaVersion, Tenant: t.name, Quota: v2Quota(t),
			Status: JobDone, Result: encodeJSON(resp),
		})
		return
	}

	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		key = req.IdempotencyKey
	}
	if key == "" {
		key = req.Batch.IdempotencyKey
	}
	scale, jobs, err := s.parseBatch(req.Batch)
	if err != nil {
		s.writeV2Error(w, http.StatusBadRequest, v2CodeBadRequest, err.Error())
		return
	}
	if key != "" && s.jm != nil {
		if s.forwardIfRemote(w, r, cluster.JobRouteKey(JobID(key)), body) {
			return
		}
		// The journal stores the inner BatchRequest, the document
		// recovery and replication run.
		job, err := s.jm.submit(key, t.name, encodeBatchBody(req.Batch))
		if err != nil {
			// A draining node or a failed journal write: a 503 the
			// client may retry, as the job was not accepted.
			s.writeV2Error(w, http.StatusServiceUnavailable, v2CodeUnavailable, err.Error())
			return
		}
		status, ckpt, _ := job.state()
		writeJSON(w, http.StatusAccepted, &V2Job{
			Schema: V2SchemaVersion, JobID: job.id, Tenant: job.tenant, Quota: v2Quota(t),
			Status: status, Checkpoint: ckpt, RetryAfterMS: retryAfterMS(retryAfterBase),
		})
		return
	}
	if s.forwardIfRemote(w, r, cluster.SessionRouteKey(sessionKey(scale, req.Batch.Metrics)), body) {
		return
	}
	ctx, cancel := s.requestContext(r, req.Batch.TimeoutMS)
	defer cancel()
	resp, err := s.execBatch(ctx, t, scale, jobs, req.Batch.Metrics)
	if err != nil {
		s.v2HTTPError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &V2Job{
		Schema: V2SchemaVersion, Tenant: t.name, Quota: v2Quota(t),
		Status: JobDone, Result: encodeJSON(resp),
	})
}

// encodeBatchBody re-encodes the inner batch document for the journal.
func encodeBatchBody(b *BatchRequest) []byte {
	body, _ := json.Marshal(b)
	return body
}

// handleJob is GET /v2/jobs/{id}: the job resource. It always answers
// 200 for a known job — status tells the client whether result is
// present yet.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenants.resolve(r)
	if !ok {
		s.writeV2Error(w, http.StatusUnauthorized, v2CodeUnauthorized, "unknown API key")
		return
	}
	if s.jm == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, "async jobs disabled: server runs without a journal")
		return
	}
	if !s.jm.owns(r.PathValue("id")) && s.forwardIfRemote(w, r, cluster.JobRouteKey(r.PathValue("id")), nil) {
		return
	}
	job := s.jm.get(r.PathValue("id"))
	if job == nil {
		s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, "unknown job id")
		return
	}
	job.mu.Lock()
	out := &V2Job{
		Schema: V2SchemaVersion, JobID: job.id, Tenant: job.tenant, Quota: v2Quota(t),
		Status: job.status, Checkpoint: job.checkpointsLocked(), Progress: job.progressLocked(),
	}
	if job.status == JobDone {
		out.Result = job.resp
	} else {
		out.RetryAfterMS = retryAfterMS(retryAfterBase)
	}
	job.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
