package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// compactJSON normalizes JSON bytes for cross-surface comparison: the
// v2 job resource embeds the v1 result document, but encodeJSON
// re-indents embedded raw messages, so parity is asserted on compacted
// bytes (same document, not same whitespace).
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %q: %v", raw, err)
	}
	return buf.String()
}

// TestV2RunParityWithV1: a sync run through POST /v2/jobs returns the
// same result document as POST /v1/run, wrapped in the job resource
// with schema, tenant and status fields.
func TestV2RunParityWithV1(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v1Status, v1Body := postJSON(t, ts.URL+"/v1/run", sorRun)
	if v1Status != http.StatusOK {
		t.Fatalf("/v1/run: status %d: %s", v1Status, v1Body)
	}
	v2Status, v2Body := postJSON(t, ts.URL+"/v2/jobs", `{"run":`+sorRun+`}`)
	if v2Status != http.StatusOK {
		t.Fatalf("/v2/jobs: status %d: %s", v2Status, v2Body)
	}
	var job V2Job
	if err := json.Unmarshal(v2Body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Schema != V2SchemaVersion {
		t.Errorf("schema = %d, want %d", job.Schema, V2SchemaVersion)
	}
	if job.Tenant != DefaultTenant {
		t.Errorf("tenant = %q, want %q", job.Tenant, DefaultTenant)
	}
	if job.Status != JobDone {
		t.Errorf("status = %q, want %q", job.Status, JobDone)
	}
	if got, want := compactJSON(t, job.Result), compactJSON(t, v1Body); got != want {
		t.Errorf("v2 result differs from v1 run:\n--- v1 ---\n%s\n--- v2 ---\n%s", want, got)
	}
}

// TestV2BatchParityWithV1: same for a sync batch, plus the async path —
// the same idempotency key through both surfaces names the same job,
// and the v2 job resource's result is the v1 poll document.
func TestV2BatchParityWithV1(t *testing.T) {
	batch := `{"scale":"quick","jobs":[{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`

	_, plain := newTestServer(t, Config{})
	v1Status, v1Body := postJSON(t, plain.URL+"/v1/batch", batch)
	if v1Status != http.StatusOK {
		t.Fatalf("/v1/batch: status %d: %s", v1Status, v1Body)
	}
	v2Status, v2Body := postJSON(t, plain.URL+"/v2/jobs", `{"batch":`+batch+`}`)
	if v2Status != http.StatusOK {
		t.Fatalf("/v2/jobs sync batch: status %d: %s", v2Status, v2Body)
	}
	var sync V2Job
	if err := json.Unmarshal(v2Body, &sync); err != nil {
		t.Fatal(err)
	}
	if got, want := compactJSON(t, sync.Result), compactJSON(t, v1Body); got != want {
		t.Errorf("v2 sync batch result differs from v1:\n--- v1 ---\n%s\n--- v2 ---\n%s", want, got)
	}

	// Async: submit over v1, read back over v2.
	path := filepath.Join(t.TempDir(), "wal")
	_, ts := newJournalServer(t, Config{CheckpointEvery: 300_000}, path)
	const key = "v2-parity"
	status, ack := postJSONKey(t, ts.URL+"/v1/batch", key, batch)
	if status != http.StatusAccepted {
		t.Fatalf("v1 async submit: status %d: %s", status, ack)
	}
	v1Done := pollJob(t, ts, JobID(key))

	// A v2 resubmit of the same key must resolve to the same job.
	req, err := http.NewRequest("POST", ts.URL+"/v2/jobs", strings.NewReader(`{"batch":`+batch+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("v2 resubmit: status %d: %s", resp.StatusCode, body)
	}
	var resub V2Job
	if err := json.Unmarshal(body, &resub); err != nil {
		t.Fatal(err)
	}
	if resub.JobID != JobID(key) {
		t.Errorf("v2 resubmit job id %s, want %s", resub.JobID, JobID(key))
	}

	getStatus, getBody := getURL(t, ts.URL+"/v2/jobs/"+JobID(key))
	if getStatus != http.StatusOK {
		t.Fatalf("GET /v2/jobs/{id}: status %d: %s", getStatus, getBody)
	}
	var got V2Job
	if err := json.Unmarshal(getBody, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != JobDone {
		t.Fatalf("v2 job status %q, want done", got.Status)
	}
	if a, b := compactJSON(t, got.Result), compactJSON(t, v1Done); a != b {
		t.Errorf("v2 job result differs from v1 poll body:\n--- v1 ---\n%s\n--- v2 ---\n%s", b, a)
	}
	if got.Checkpoint == 0 {
		t.Error("v2 job resource reports zero checkpoints after a checkpointed run")
	}
}

// getURL GETs url and returns status + body.
func getURL(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestV2ErrorEnvelope: every /v2 failure speaks the one envelope with a
// machine-readable code.
func TestV2ErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		auth       string
		wantStatus int
		wantCode   string
	}{
		{"garbage body", "POST", "/v2/jobs", "{not json", "", http.StatusBadRequest, "bad_request"},
		{"neither run nor batch", "POST", "/v2/jobs", "{}", "", http.StatusBadRequest, "bad_request"},
		{"both run and batch", "POST", "/v2/jobs",
			`{"run":` + sorRun + `,"batch":{"jobs":[]}}`, "", http.StatusBadRequest, "bad_request"},
		{"invalid run", "POST", "/v2/jobs",
			`{"run":{"app":"no-such-app","config":{"procs":1,"threads":1,"model":"switch-on-use"}}}`,
			"", http.StatusBadRequest, "bad_request"},
		{"oversized run", "POST", "/v2/jobs",
			`{"run":{"app":"sor","config":{"procs":100000,"threads":100,"model":"switch-on-use"}}}`,
			"", http.StatusBadRequest, "bad_request"},
		{"oversized batch job", "POST", "/v2/jobs",
			`{"batch":{"jobs":[{"app":"sor","config":{"procs":4,"threads":1,"model":"switch-on-load","topology":{"kind":"mesh","nodes":1073741824}}}]}}`,
			"", http.StatusBadRequest, "bad_request"},
		{"unknown API key", "POST", "/v2/jobs", `{"run":` + sorRun + `}`,
			"Bearer nope", http.StatusUnauthorized, "unauthorized"},
		{"job without journal", "GET", "/v2/jobs/b-0000000000000000", "", "", http.StatusNotFound, "not_found"},
		{"events without journal", "GET", "/v2/jobs/b-0000000000000000/events", "", "", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			if tc.auth != "" {
				req.Header.Set("Authorization", tc.auth)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var env V2Error
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("not the error envelope: %s", body)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestV2QuotaEnforcement: a tenant with a 1-token bucket gets one
// request through (with its quota reported in the body) and a 429 with
// the quota_exceeded code, a retry hint, and a Retry-After header on
// the next. The v1 surface enforces the same bucket in its own shape.
func TestV2QuotaEnforcement(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: []TenantConfig{
		{Name: "metered", Weight: 1, Rate: 0.0001, Burst: 1, APIKeys: []string{"sekrit"}},
	}})
	do := func(path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer sekrit")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 without a Retry-After header")
		}
		return resp.StatusCode, data
	}

	status, body := do("/v2/jobs", `{"run":`+sorRun+`}`)
	if status != http.StatusOK {
		t.Fatalf("first metered request: status %d: %s", status, body)
	}
	var job V2Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "metered" {
		t.Errorf("tenant %q, want metered", job.Tenant)
	}
	if job.Quota == nil || job.Quota.Burst != 1 {
		t.Errorf("quota missing or wrong from metered response: %+v", job.Quota)
	}

	status, body = do("/v2/jobs", `{"run":`+sorRun+`}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second metered request: status %d, want 429: %s", status, body)
	}
	var env V2Error
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not the error envelope: %s", body)
	}
	if env.Error.Code != "quota_exceeded" {
		t.Errorf("code %q, want quota_exceeded", env.Error.Code)
	}
	if env.Error.RetryAfterMS <= 0 {
		t.Errorf("retry_after_ms = %d, want > 0", env.Error.RetryAfterMS)
	}

	// The v1 shim enforces the same bucket in the legacy error shape.
	status, body = do("/v1/run", sorRun)
	if status != http.StatusTooManyRequests {
		t.Fatalf("v1 metered request: status %d, want 429: %s", status, body)
	}
	var legacy errorResponse
	if err := json.Unmarshal(body, &legacy); err != nil || legacy.Error == "" {
		t.Errorf("v1 429 body is not the legacy error shape: %s", body)
	}
}

// TestV2RetryAfterRoundsUp: on a 0.4 requests/s quota the 429's
// retry_after_ms is about 2500; the Retry-After header must round it
// up to whole seconds, so a client honouring the header does not come
// back before a token accrues.
func TestV2RetryAfterRoundsUp(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultQuota: Quota{Rate: 0.4, Burst: 1}})
	post := func() *http.Response {
		t.Helper()
		// An empty body is charged to the quota before it is rejected
		// as a bad request, so no simulation runs.
		resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first request: status %d, want 400", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	var env V2Error
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	ms := env.Error.RetryAfterMS
	if ms <= 1000 {
		t.Fatalf("retry_after_ms = %d, want the ~2500 ms a token takes to accrue", ms)
	}
	secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if want := (ms + 999) / 1000; secs < want {
		t.Errorf("Retry-After = %ds for retry_after_ms %d, want at least %ds", secs, ms, want)
	}
}

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSE consumes an event stream until the done event (or EOF) and
// returns the frames.
func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	if err := scanSSE(r, func(f sseFrame) { frames = append(frames, f) }); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return frames
}

// scanSSE parses an event stream, handing each frame to emit, until
// the done event or EOF.
func scanSSE(r io.Reader, emit func(sseFrame)) error {
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				emit(cur)
				if cur.event == "done" {
					return nil
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return sc.Err()
}

// TestSSEEventOrderingAndResume subscribes to a live job, requires the
// event grammar (status first, checkpoints strictly increasing, done
// last), then replays with Last-Event-ID from a mid-stream cursor and
// requires exactly the tail — no duplicate, no missing event.
func TestSSEEventOrderingAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	_, ts := newJournalServer(t, Config{CheckpointEvery: 150_000}, path)
	batch := `{"scale":"quick","jobs":[{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`
	const key = "sse-ordering"
	status, ack := postJSONKey(t, ts.URL+"/v1/batch", key, batch)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, ack)
	}
	id := JobID(key)

	// Live subscription: opened right after the 202, so most events
	// arrive while the job runs.
	frames := fetchStream(t, ts, "/v1/batch/jobs/"+id+"/events", "")
	if len(frames) < 2 {
		t.Fatalf("stream delivered %d frames, want status + checkpoints + done", len(frames))
	}
	if frames[0].event != "status" {
		t.Errorf("first frame is %q, want status", frames[0].event)
	}
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Errorf("last frame is %q, want done", last.event)
	}
	var ids []string
	prev := sseCursorStart
	for _, f := range frames[1 : len(frames)-1] {
		if f.event != "checkpoint" {
			t.Fatalf("mid-stream frame is %q, want checkpoint", f.event)
		}
		ev, ok := parseEventID(f.id)
		if !ok {
			t.Fatalf("unparseable event id %q", f.id)
		}
		if !ev.after(prev) {
			t.Fatalf("event %s does not advance past %v — order violated", f.id, prev)
		}
		var payload JobEvent
		if err := json.Unmarshal([]byte(f.data), &payload); err != nil || payload != ev {
			t.Errorf("event %s data %q does not match its id", f.id, f.data)
		}
		prev = ev
		ids = append(ids, f.id)
	}
	if len(ids) < 3 {
		t.Fatalf("only %d checkpoint events; lower CheckpointEvery so resume has a tail to verify", len(ids))
	}

	// Resume from the middle: exactly the strict tail, then done.
	mid := len(ids) / 2
	resumed := fetchStream(t, ts, "/v1/batch/jobs/"+id+"/events", ids[mid])
	var tail []string
	for _, f := range resumed {
		if f.event == "checkpoint" {
			tail = append(tail, f.id)
		}
	}
	want := ids[mid+1:]
	if strings.Join(tail, " ") != strings.Join(want, " ") {
		t.Errorf("resume from %s delivered %v, want exactly %v", ids[mid], tail, want)
	}

	// Resume from the last event (query-parameter form): no checkpoint
	// events at all, straight to done. Also exercises the v2 route.
	final := fetchStream(t, ts, "/v2/jobs/"+id+"/events?last_event_id="+ids[len(ids)-1], "")
	for _, f := range final {
		if f.event == "checkpoint" {
			t.Errorf("resume past the end replayed checkpoint %s", f.id)
		}
	}

	// A malformed cursor is a bad_request, not a stream.
	st, body := getURL(t, ts.URL+"/v2/jobs/"+id+"/events?last_event_id=bogus")
	if st != http.StatusBadRequest {
		t.Errorf("bogus cursor: status %d, want 400: %s", st, body)
	}
	var env V2Error
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "bad_request" {
		t.Errorf("bogus cursor error not in the v2 envelope: %s", body)
	}
}

// fetchStream opens an SSE endpoint and parses it through done.
func fetchStream(t *testing.T, ts *httptest.Server, path, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: status %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q, want text/event-stream", ct)
	}
	frames := readSSE(t, resp.Body)
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("stream %s ended without a done event (%d frames)", path, len(frames))
	}
	return frames
}
