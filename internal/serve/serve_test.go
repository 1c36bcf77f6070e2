package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/exp"
	"mtsim/internal/machine"
)

// newTestServer starts a Server over httptest and tears it down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body to url and returns status + response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// postJob posts body to POST /v2/jobs, with an Idempotency-Key header
// when key is set, and returns the status and, on 200, the job's result
// document. Any other reply (a 202's job resource, an error envelope)
// comes back whole.
func postJob(t *testing.T, baseURL, key, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", baseURL+"/v2/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, data
	}
	var job V2Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("not a job resource: %v: %s", err, data)
	}
	return resp.StatusCode, job.Result
}

// postRun posts run as a sync run job (see postJob).
func postRun(t *testing.T, baseURL, run string) (int, []byte) {
	t.Helper()
	return postJob(t, baseURL, "", `{"run":`+run+`}`)
}

// postBatch posts batch as a batch job, async when key is set on a
// journaling server (see postJob).
func postBatch(t *testing.T, baseURL, key, batch string) (int, []byte) {
	t.Helper()
	return postJob(t, baseURL, key, `{"batch":`+batch+`}`)
}

// envelope decodes an error body, failing unless it is the V2Error
// envelope with a code.
func envelope(t *testing.T, body []byte) V2ErrorBody {
	t.Helper()
	var env V2Error
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("not the error envelope: %s", body)
	}
	return env.Error
}

const sorRun = `{"app":"sor","scale":"quick","config":{"procs":4,"threads":4,"model":"switch-on-miss","latency":100}}`

// TestRunEndpointMatchesLibrary: a sync run through POST /v2/jobs is a
// done job resource of the anonymous tenant, and its result's numbers
// must be exactly the library path's — the server adds transport,
// never arithmetic.
func TestRunEndpointMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v2/jobs", `{"run":`+sorRun+`}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var job V2Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Schema != V2SchemaVersion || job.Tenant != DefaultTenant || job.Status != JobDone || job.JobID != "" {
		t.Errorf("job resource = schema %d tenant %q status %q id %q, want %d %q %q and no id",
			job.Schema, job.Tenant, job.Status, job.JobID, V2SchemaVersion, DefaultTenant, JobDone)
	}
	var got RunResponse
	if err := json.Unmarshal(job.Result, &got); err != nil {
		t.Fatal(err)
	}

	sess := core.NewSession()
	a := apps.MustNew("sor", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 4, Model: machine.SwitchOnMiss, Latency: 100}
	res, err := sess.Run(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Baseline(a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ResponseSchemaVersion {
		t.Errorf("schema = %d, want %d", got.Schema, ResponseSchemaVersion)
	}
	if got.Cycles != res.Cycles || got.Instrs != res.Instrs || got.BaselineCycles != base {
		t.Errorf("served cycles/instrs/baseline = %d/%d/%d, library = %d/%d/%d",
			got.Cycles, got.Instrs, got.BaselineCycles, res.Cycles, res.Instrs, base)
	}
	if got.Efficiency != res.Efficiency(base) || got.Speedup != res.Speedup(base) {
		t.Errorf("served efficiency/speedup diverge from library")
	}
	if got.Metrics != nil {
		t.Error("metrics returned without being requested")
	}
}

// TestRunEndpointMetricsSchema: metrics:true attaches the RunMetrics
// record with its own schema version.
func TestRunEndpointMetricsSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"app":"sor","metrics":true,"config":{"procs":2,"threads":2,"model":"switch-on-miss","latency":100}}`
	status, data := postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var got RunResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Metrics == nil {
		t.Fatal("metrics requested but absent")
	}
	if got.Metrics.Schema != 1 {
		t.Errorf("metrics schema = %d, want 1", got.Metrics.Schema)
	}
	if !bytes.Contains(data, []byte(`"schema": 1`)) {
		t.Error("response body does not carry the schema marker")
	}
}

// TestRunEndpointValidation: the decoder rejects what Config.Validate
// rejects, with a 400 bad_request envelope and the library's message.
func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		wantErr    string
	}{
		{"bad json", `{`, http.StatusBadRequest, "bad request body"},
		{"unknown app", `{"app":"nope","config":{"procs":1,"threads":1,"model":"ideal"}}`, http.StatusBadRequest, "unknown application"},
		{"unknown model", `{"app":"sor","config":{"procs":1,"threads":1,"model":"warp"}}`, http.StatusBadRequest, "unknown model"},
		{"bad threads", `{"app":"sor","config":{"procs":2,"threads":-3,"model":"ideal"}}`, http.StatusBadRequest, "Threads -3 < 1"},
		{"bad scale", `{"app":"sor","scale":"galactic","config":{"procs":1,"threads":1,"model":"ideal"}}`, http.StatusBadRequest, "unknown scale"},
		{"faults on ideal", `{"app":"sor","config":{"procs":1,"threads":1,"model":"ideal","faults":{"seed":1,"drop_rate":0.1}}}`, http.StatusBadRequest, "fault injection"},
		{"too many contexts", `{"app":"sor","config":{"procs":100000,"threads":100,"model":"ideal"}}`, http.StatusBadRequest, "thread contexts"},
		{"too many nodes", `{"app":"sor","config":{"procs":4,"threads":1,"model":"switch-on-load","topology":{"kind":"mesh","nodes":1073741824}}}`, http.StatusBadRequest, "nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRun(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			e := envelope(t, body)
			if e.Code != v2CodeBadRequest || !strings.Contains(e.Message, tc.wantErr) {
				t.Errorf("error %s %q, want bad_request mentioning %q", e.Code, e.Message, tc.wantErr)
			}
		})
	}
}

// FuzzConfigRequest feeds arbitrary bytes to the wire config decoder.
// Neither decoding nor ToMachine may panic, and every config ToMachine
// accepts must validate and stay within the wire size bounds, since a
// request is what sizes the machine a worker allocates.
func FuzzConfigRequest(f *testing.F) {
	for _, seed := range []string{
		`{"procs":16,"threads":4,"model":"conditional-switch","latency":200}`,
		`{"procs":8,"threads":6,"model":"explicit-switch","group_window":true,"window_cells":16,"crit_priority":true}`,
		`{"procs":4,"threads":2,"model":"switch-on-load","topology":{"kind":"dragonfly","nodes":8}}`,
		`{"procs":2,"threads":2,"model":"switch-on-use","faults":{"seed":7,"drop_rate":0.05,"delay_rate":0.05}}`,
		`{"procs":100000,"threads":100,"model":"ideal"}`,
		`{"procs":4,"threads":1,"model":"switch-on-load","topology":{"kind":"mesh","nodes":1073741824}}`,
		`{"procs":-1,"threads":0,"model":""}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c ConfigRequest
		if json.Unmarshal(data, &c) != nil {
			return
		}
		cfg, err := c.ToMachine()
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config does not validate: %v", err)
		}
		eff := cfg.Effective()
		if eff.Procs > maxWireContexts || eff.Threads > maxWireContexts || eff.Procs*eff.Threads > maxWireContexts {
			t.Fatalf("accepted %d procs × %d threads", eff.Procs, eff.Threads)
		}
		if eff.Topology.Nodes > maxWireNodes {
			t.Fatalf("accepted a topology of %d nodes", eff.Topology.Nodes)
		}
	})
}

// FuzzBatchRequest feeds arbitrary bytes through the batch decoding
// path: json.Unmarshal into a BatchRequest, then parseBatch. It must
// not panic, and a batch it accepts has 1 to 256 jobs, each of which
// validates and stays within the wire size bounds.
func FuzzBatchRequest(f *testing.F) {
	f.Add([]byte(`{"scale":"quick","jobs":[{"app":"sieve","config":{"procs":4,"threads":2,"model":"switch-on-use"}}]}`))
	f.Add([]byte(`{"scale":"medium","jobs":[{"app":"sor","config":{"procs":4,"threads":2,"model":"switch-on-load","topology":{"kind":"mesh"},"faults":{"seed":3,"drop_rate":0.1}}}]}`))
	f.Add([]byte(`{"jobs":[{"app":"sieve","config":{"procs":70000,"threads":1,"model":"switch-on-use"}}]}`))
	job := `{"app":"sieve","config":{"procs":1,"threads":1,"model":"ideal"}}`
	f.Add([]byte(`{"jobs":[` + strings.Repeat(job+",", maxBatchJobs) + job + `]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		_, jobs, err := (*Server)(nil).parseBatch(&req)
		if err != nil {
			return
		}
		if len(jobs) < 1 || len(jobs) > maxBatchJobs || len(jobs) != len(req.Jobs) {
			t.Fatalf("accepted a batch of %d jobs from %d", len(jobs), len(req.Jobs))
		}
		for i, j := range jobs {
			if j.App == nil {
				t.Fatalf("job %d: accepted without an application", i)
			}
			if err := j.Cfg.Validate(); err != nil {
				t.Fatalf("job %d: accepted config does not validate: %v", i, err)
			}
			eff := j.Cfg.Effective()
			if eff.Procs > maxWireContexts || eff.Threads > maxWireContexts || eff.Procs*eff.Threads > maxWireContexts ||
				eff.Topology.Nodes > maxWireNodes {
				t.Fatalf("job %d: accepted %d procs × %d threads on %d nodes", i, eff.Procs, eff.Threads, eff.Topology.Nodes)
			}
		}
	})
}

// TestBatchEndpointPartialAligned: a batch response is job-aligned, and
// job-level validation failures name the offending index.
func TestBatchEndpointPartialAligned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"scale":"quick","jobs":[
		{"app":"sor","config":{"procs":2,"threads":4,"model":"switch-on-use","latency":100}},
		{"app":"sieve","config":{"procs":2,"threads":4,"model":"switch-on-use","latency":100}}]}`
	status, data := postBatch(t, ts.URL, "", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var got BatchResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 || len(got.Errors) != 2 || got.Failed != 0 {
		t.Fatalf("response not job-aligned: %d results, %d errors, %d failed", len(got.Results), len(got.Errors), got.Failed)
	}
	if got.Results[0].App != "sor" || got.Results[1].App != "sieve" {
		t.Errorf("results out of job order: %s, %s", got.Results[0].App, got.Results[1].App)
	}

	status, data = postBatch(t, ts.URL, "", `{"jobs":[{"app":"sor","config":{"procs":0,"threads":-1,"model":"ideal"}}]}`)
	if status != http.StatusBadRequest || !strings.HasPrefix(envelope(t, data).Message, "job 0:") {
		t.Errorf("bad job: status %d body %s, want 400 naming job 0", status, data)
	}
	status, data = postBatch(t, ts.URL, "", `{"jobs":[]}`)
	if status != http.StatusBadRequest || envelope(t, data).Code != v2CodeBadRequest {
		t.Errorf("empty batch: status %d body %s, want 400 bad_request", status, data)
	}
}

// TestExperimentEndpointMatchesLibrary: the rendered body must embed
// exactly what the library renders for the same options.
func TestExperimentEndpointMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v2/experiments/figure4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}

	var buf bytes.Buffer
	o := exp.New(&buf, exp.WithScale(app.Quick))
	e, err := exp.ByID("figure4")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(o); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(body, buf.Bytes()) {
		t.Error("served rendering diverges from the library's")
	}

	status, body := getURL(t, ts.URL+"/v2/experiments/bogus")
	if status != http.StatusNotFound || envelope(t, body).Code != v2CodeNotFound {
		t.Errorf("unknown experiment: status = %d body %s, want 404 not_found", status, body)
	}
}

// TestExperimentEndpointAdmitsTenants: an experiment render resolves
// and charges the tenant as a run does — 401 unauthorized for an
// unknown API key, 429 quota_exceeded with a Retry-After header once
// the tenant's quota is spent.
func TestExperimentEndpointAdmitsTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: []TenantConfig{
		{Name: "acme", Rate: 0.001, Burst: 1, APIKeys: []string{"k"}},
	}})
	for i, tc := range []struct {
		key      string
		want     int
		wantCode string
	}{
		{"nope", http.StatusUnauthorized, v2CodeUnauthorized},
		{"k", http.StatusOK, ""},
		{"k", http.StatusTooManyRequests, v2CodeQuotaExceeded},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v2/experiments/figure4", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+tc.key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("request %d (key %q): status %d, want %d: %s", i, tc.key, resp.StatusCode, tc.want, body)
		}
		if tc.want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Errorf("request %d: 429 without a Retry-After header", i)
		}
		if tc.wantCode != "" && resp.StatusCode == tc.want {
			if code := envelope(t, body).Code; code != tc.wantCode {
				t.Errorf("request %d: code %q, want %q", i, code, tc.wantCode)
			}
		}
	}
}

// TestHealthz reports ok with the gauges and the schema marker.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Schema != V2SchemaVersion {
		t.Errorf("healthz = %d %q schema %d", resp.StatusCode, h.Status, h.Schema)
	}
}

// TestDeadlineFreesWorkerNoLeak: a request whose deadline expires
// mid-simulation returns a 504 timeout, frees its worker slot for the
// next request, and leaves no goroutine behind.
func TestDeadlineFreesWorkerNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	// Heavy configuration, 1ms budget: the run cannot finish in time.
	heavy := `{"app":"sieve","timeout_ms":1,"config":{"procs":16,"threads":16,"model":"switch-every-cycle","latency":400}}`
	status, body := postRun(t, ts.URL, heavy)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, body)
	}
	if e := envelope(t, body); e.Code != v2CodeTimeout || !strings.Contains(e.Message, "deadline") {
		t.Errorf("504 body %s is not a timeout mentioning the deadline", body)
	}
	// The worker the canceled run held must be free again.
	status, body = postRun(t, ts.URL, sorRun)
	if status != http.StatusOK {
		t.Fatalf("follow-up run: status = %d (worker not freed?), body %s", status, body)
	}
	if got := s.Inflight(); got != 0 {
		t.Errorf("Inflight = %d after requests drained, want 0", got)
	}

	ts.Close() // drop the keep-alive conns before counting
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestConcurrentLoadBoundedQueue: 64 simultaneous Quick runs against a
// small worker pool. The contract: every response is either a 200 whose
// result's numbers are byte-identical to the library path, or a 429
// envelope with a Retry-After hint; the gate never admits more than
// workers+queue.
func TestConcurrentLoadBoundedQueue(t *testing.T) {
	const clients = 64
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	// The library-path truth for the one configuration all clients post.
	sess := core.NewSession()
	a := apps.MustNew("sor", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 4, Model: machine.SwitchOnMiss, Latency: 100}
	res, err := sess.Run(a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	client := &http.Client{}
	start := make(chan struct{})
	type reply struct {
		status     int
		retryAfter string
		body       []byte
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req, _ := http.NewRequest("POST", ts.URL+"/v2/jobs", strings.NewReader(`{"run":`+sorRun+`}`))
			resp, err := client.Do(req)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			replies[i] = reply{resp.StatusCode, resp.Header.Get("Retry-After"), body}
		}(i)
	}
	close(start)
	wg.Wait()

	var ok, shed int
	for i, r := range replies {
		switch r.status {
		case http.StatusOK:
			ok++
			var job V2Job
			var got RunResponse
			if err := json.Unmarshal(r.body, &job); err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			if err := json.Unmarshal(job.Result, &got); err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			if got.Cycles != res.Cycles || got.Instrs != res.Instrs {
				t.Errorf("client %d: cycles/instrs %d/%d, library %d/%d — results must be byte-identical under load",
					i, got.Cycles, got.Instrs, res.Cycles, res.Instrs)
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Errorf("client %d: 429 without Retry-After", i)
			}
			if e := envelope(t, r.body); e.RetryAfterMS <= 0 {
				t.Errorf("client %d: 429 %s without retry_after_ms", i, e.Code)
			}
		default:
			t.Errorf("client %d: unexpected status %d: %s", i, r.status, r.body)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under load")
	}
	if ok+shed != clients {
		t.Errorf("ok %d + shed %d != %d clients", ok, shed, clients)
	}
	t.Logf("load: %d ok, %d shed (cap %d)", ok, shed, 2+4)
	if g := s.Queued(); g != 0 {
		t.Errorf("Queued = %d after load drained, want 0", g)
	}
}

// TestShutdownWithoutListen is a no-op, not a panic.
func TestShutdownWithoutListen(t *testing.T) {
	if err := New(Config{}).Shutdown(nil); err != nil {
		t.Fatal(err)
	}
}

// TestSessionReuseAcrossRequests: two identical runs hit one cached
// session, so the second is a memo hit — the serving layer's whole
// point.
func TestSessionReuseAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if status, body := postRun(t, ts.URL, sorRun); status != http.StatusOK {
			t.Fatalf("run %d: status %d body %s", i, status, body)
		}
	}
	if got := s.Sessions(); got != 1 {
		t.Errorf("Sessions = %d, want 1", got)
	}
	sess := s.sessions.Get("quick")
	// 2 simulations (run + baseline), then pure memo hits.
	if sess.SimCount() != 2 {
		t.Errorf("SimCount = %d, want 2 (second request should memo-hit)", sess.SimCount())
	}
	// The second request's run and its baseline are both memo hits.
	if sess.MemoHits() != 2 {
		t.Errorf("MemoHits = %d, want 2", sess.MemoHits())
	}
}

// TestSessionsSurviveOtherScales: a default server serving quick,
// medium+metrics and full keeps one session for each, so serving the
// other two never drops the quick memo.
func TestSessionsSurviveOtherScales(t *testing.T) {
	s := New(Config{})
	quick := s.session(app.Quick, false)
	s.session(app.Medium, true)
	s.session(app.Full, false)
	if got := s.Sessions(); got != 3 {
		t.Errorf("Sessions = %d, want 3", got)
	}
	if s.session(app.Quick, false) != quick {
		t.Error("the quick session was rebuilt after serving medium+metrics and full")
	}
}

// TestRequestsShareAppInstances checks that request validation resolves
// applications to the process-wide shared instances instead of
// building a kernel per request, on the sync and the batch path alike.
func TestRequestsShareAppInstances(t *testing.T) {
	s := New(Config{})
	want := apps.MustNew("water", app.Quick)
	for i := 0; i < 2; i++ {
		_, a, _, err := s.validateRun(&RunRequest{App: "water", Config: ConfigRequest{Model: "switch-on-load"}})
		if err != nil {
			t.Fatal(err)
		}
		if a != want {
			t.Fatalf("run %d: validateRun built its own water instance", i)
		}
	}
	_, jobs, err := s.parseBatch(&BatchRequest{Jobs: []BatchJob{
		{App: "water", Config: ConfigRequest{Model: "switch-on-load"}},
		{App: "water", Config: ConfigRequest{Model: "explicit-switch"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.App != want {
			t.Errorf("batch job %d: parseBatch built its own water instance", i)
		}
	}
}
