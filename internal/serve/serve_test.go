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

const sorRun = `{"app":"sor","scale":"quick","config":{"procs":4,"threads":4,"model":"switch-on-miss","latency":100}}`

// TestRunEndpointMatchesLibrary: the served numbers must be exactly the
// library path's — the server adds transport, never arithmetic.
func TestRunEndpointMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/run", sorRun)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var got RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
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
	status, data := postJSON(t, ts.URL+"/v1/run", body)
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
// rejects, with a 400 and the library's message.
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
			status, body := postJSON(t, ts.URL+"/v1/run", tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
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

// TestBatchEndpointPartialAligned: a batch response is job-aligned, and
// job-level validation failures name the offending index.
func TestBatchEndpointPartialAligned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"scale":"quick","jobs":[
		{"app":"sor","config":{"procs":2,"threads":4,"model":"switch-on-use","latency":100}},
		{"app":"sieve","config":{"procs":2,"threads":4,"model":"switch-on-use","latency":100}}]}`
	status, data := postJSON(t, ts.URL+"/v1/batch", body)
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

	status, data = postJSON(t, ts.URL+"/v1/batch", `{"jobs":[{"app":"sor","config":{"procs":0,"threads":-1,"model":"ideal"}}]}`)
	if status != http.StatusBadRequest || !bytes.Contains(data, []byte("job 0:")) {
		t.Errorf("bad job: status %d body %s, want 400 naming job 0", status, data)
	}
	status, data = postJSON(t, ts.URL+"/v1/batch", `{"jobs":[]}`)
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d body %s, want 400", status, data)
	}
}

// TestExperimentEndpointMatchesLibrary: the rendered body must embed
// exactly what the library renders for the same options.
func TestExperimentEndpointMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments/figure4")
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

	resp2, err := http.Get(ts.URL + "/v1/experiments/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: status = %d, want 404", resp2.StatusCode)
	}
}

// TestExperimentEndpointAdmitsTenants: an experiment render resolves
// and charges the tenant as /v1/run does — 401 for an unknown API key,
// 429 with a Retry-After header once the tenant's quota is spent.
func TestExperimentEndpointAdmitsTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenants: []TenantConfig{
		{Name: "acme", Rate: 0.001, Burst: 1, APIKeys: []string{"k"}},
	}})
	for i, tc := range []struct {
		key  string
		want int
	}{
		{"nope", http.StatusUnauthorized},
		{"k", http.StatusOK},
		{"k", http.StatusTooManyRequests},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v1/experiments/figure4", nil)
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
	}
}

// TestHealthz reports ok with the gauges.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, h.Status)
	}
}

// TestDeadlineFreesWorkerNoLeak: a request whose deadline expires
// mid-simulation returns 504, frees its worker slot for the next
// request, and leaves no goroutine behind.
func TestDeadlineFreesWorkerNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	// Heavy configuration, 1ms budget: the run cannot finish in time.
	heavy := `{"app":"sieve","timeout_ms":1,"config":{"procs":16,"threads":16,"model":"switch-every-cycle","latency":400}}`
	status, body := postJSON(t, ts.URL+"/v1/run", heavy)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, body)
	}
	if !bytes.Contains(body, []byte("deadline")) {
		t.Errorf("504 body %s does not mention the deadline", body)
	}
	// The worker the canceled run held must be free again.
	status, body = postJSON(t, ts.URL+"/v1/run", sorRun)
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
// numbers are byte-identical to the library path, or a 429 with a
// Retry-After hint; the gate never admits more than workers+queue.
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
			req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(sorRun))
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
			var got RunResponse
			if err := json.Unmarshal(r.body, &got); err != nil {
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
		if status, body := postJSON(t, ts.URL+"/v1/run", sorRun); status != http.StatusOK {
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
