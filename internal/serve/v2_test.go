package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// compactJSON normalizes JSON bytes: the journal stores a result
// document as encodeJSON renders it on its own, and a job resource
// re-indents it one level deeper as its `result`, so the two are
// compared as compacted bytes (same document, not same whitespace).
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %q: %v", raw, err)
	}
	return buf.String()
}

// TestBatchSyncAsyncParity: a batch run sync and the same batch run as
// a durable async job have byte-identical results; resubmitting the
// idempotency key names the same job; and the done bytes the journal
// recorded are the served result's document.
func TestBatchSyncAsyncParity(t *testing.T) {
	batch := `{"scale":"quick","jobs":[{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`

	_, plain := newTestServer(t, Config{})
	syncStatus, syncResult := postBatch(t, plain.URL, "", batch)
	if syncStatus != http.StatusOK {
		t.Fatalf("sync batch: status %d: %s", syncStatus, syncResult)
	}

	path := filepath.Join(t.TempDir(), "wal")
	s, ts := newJournalServer(t, Config{CheckpointEvery: 300_000}, path)
	const key = "v2-parity"
	status, ack := postBatch(t, ts.URL, key, batch)
	if status != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", status, ack)
	}
	asyncResult := pollJob(t, ts, JobID(key))
	if !bytes.Equal(asyncResult, syncResult) {
		t.Errorf("async job result differs from the sync batch's:\n--- sync ---\n%s\n--- async ---\n%s", syncResult, asyncResult)
	}

	// A resubmit of the same key must resolve to the same job.
	status, body := postBatch(t, ts.URL, key, batch)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit: status %d: %s", status, body)
	}
	var resub V2Job
	if err := json.Unmarshal(body, &resub); err != nil {
		t.Fatal(err)
	}
	if resub.JobID != JobID(key) {
		t.Errorf("resubmit job id %s, want %s", resub.JobID, JobID(key))
	}

	getStatus, getBody := getURL(t, ts.URL+"/v2/jobs/"+JobID(key))
	if getStatus != http.StatusOK {
		t.Fatalf("GET /v2/jobs/{id}: status %d: %s", getStatus, getBody)
	}
	var got V2Job
	if err := json.Unmarshal(getBody, &got); err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == 0 {
		t.Error("job resource reports zero checkpoints after a checkpointed run")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	j, jobs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(jobs) != 1 || jobs[0].Resp == nil {
		t.Fatalf("journal holds %d jobs, want 1 done", len(jobs))
	}
	if a, b := compactJSON(t, jobs[0].Resp), compactJSON(t, asyncResult); a != b {
		t.Errorf("journaled done bytes differ from the served result:\n--- journal ---\n%s\n--- served ---\n%s", a, b)
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
// machine-readable code, and so does a request no route matches.
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
		{"unrouted path", "POST", "/v0/run", sorRun, "", http.StatusNotFound, "not_found"},
		{"wrong method on jobs", "GET", "/v2/jobs", "", "", http.StatusMethodNotAllowed, "bad_request"},
		{"wrong method on a job", "DELETE", "/v2/jobs/b-0000000000000000", "", "", http.StatusMethodNotAllowed, "bad_request"},
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
			if resp.StatusCode == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
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

// TestErrorCodesMatchSpec: the error codes v2.go defines are exactly
// the enum api/openapi.yaml documents for the envelope's code, so a
// client generated from the spec knows every code the server sends.
func TestErrorCodesMatchSpec(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "v2.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, name := range vs.Names {
				if strings.HasPrefix(name.Name, "v2Code") {
					code, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					codes = append(codes, code)
				}
			}
		}
		return true
	})
	spec, err := os.ReadFile(filepath.Join("..", "..", "api", "openapi.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(spec), "            code:\n")
	if _, rest, found = strings.Cut(rest, "enum:\n"); !found {
		t.Fatal("api/openapi.yaml: no enum under the envelope's code")
	}
	var enum []string
	for _, line := range strings.Split(rest, "\n") {
		item, ok := strings.CutPrefix(strings.TrimSpace(line), "- ")
		if !ok {
			break
		}
		enum = append(enum, item)
	}
	slices.Sort(codes)
	slices.Sort(enum)
	if !slices.Equal(codes, enum) {
		t.Errorf("v2.go defines codes %v, api/openapi.yaml lists %v", codes, enum)
	}
}

// TestV2QuotaEnforcement: a tenant with a 1-token bucket gets one
// request through (with its quota reported in the body) and a 429 with
// the quota_exceeded code, a retry hint, and a Retry-After header on
// the next. The experiment route charges the same bucket.
func TestV2QuotaEnforcement(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: []TenantConfig{
		{Name: "metered", Weight: 1, Rate: 0.0001, Burst: 1, APIKeys: []string{"sekrit"}},
	}})
	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
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

	status, body := do("POST", "/v2/jobs", `{"run":`+sorRun+`}`)
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

	status, body = do("POST", "/v2/jobs", `{"run":`+sorRun+`}`)
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

	status, body = do("GET", "/v2/experiments/figure4", "")
	if status != http.StatusTooManyRequests {
		t.Fatalf("metered experiment: status %d, want 429: %s", status, body)
	}
	if e := envelope(t, body); e.Code != v2CodeQuotaExceeded || e.RetryAfterMS <= 0 {
		t.Errorf("metered experiment: code %q retry_after_ms %d, want quota_exceeded with a hint", e.Code, e.RetryAfterMS)
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
	status, ack := postBatch(t, ts.URL, key, batch)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, ack)
	}
	id := JobID(key)

	// Live subscription: opened right after the 202, so most events
	// arrive while the job runs.
	frames := fetchStream(t, ts, "/v2/jobs/"+id+"/events", "")
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
	resumed := fetchStream(t, ts, "/v2/jobs/"+id+"/events", ids[mid])
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
	// events at all, straight to done.
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
	if envelope(t, body).Code != v2CodeBadRequest {
		t.Errorf("bogus cursor error is not a bad_request: %s", body)
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
