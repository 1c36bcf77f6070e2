package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/cluster"
	"mtsim/internal/core"
	"mtsim/internal/exp"
	"mtsim/internal/machine"
	"mtsim/internal/metrics"
	"mtsim/internal/net"
)

// ResponseSchemaVersion identifies the JSON layout of the /v1 response
// bodies. The embedded metrics records carry the internal/metrics
// schema version independently.
const ResponseSchemaVersion = 1

// ConfigRequest is the wire form of a simulation configuration: the
// JSON-friendly subset of machine.Config with the model by name.
// Decoding goes through machine.Config.Validate — the same check the
// library path runs — so the server can never accept a configuration
// the library would reject.
type ConfigRequest struct {
	Procs         int              `json:"procs"`
	Threads       int              `json:"threads"`
	Model         string           `json:"model"`
	Latency       int              `json:"latency,omitempty"`
	SwitchCost    int              `json:"switch_cost,omitempty"`
	RunLimit      int              `json:"run_limit,omitempty"`
	CritPriority  bool             `json:"crit_priority,omitempty"`
	GroupWindow   bool             `json:"group_window,omitempty"`
	WindowCells   int              `json:"window_cells,omitempty"`
	LatencyJitter int              `json:"latency_jitter,omitempty"`
	MaxCycles     int64            `json:"max_cycles,omitempty"`
	Topology      *TopologyRequest `json:"topology,omitempty"`
	Faults        *FaultsRequest   `json:"faults,omitempty"`
}

// TopologyRequest is the wire form of the interconnect-topology knobs.
// Kind names a net.TopologyKind ("constant", "mesh", "fattree",
// "dragonfly"); an unknown name is a 400 listing the valid choices.
// Zero-valued shape parameters take their Procs-derived defaults.
type TopologyRequest struct {
	Kind        string `json:"kind"`
	Nodes       int    `json:"nodes,omitempty"`
	HopCycles   int    `json:"hop_cycles,omitempty"`
	ChannelBits int    `json:"channel_bits,omitempty"`
	MemCycles   int    `json:"mem_cycles,omitempty"`
}

// FaultsRequest is the wire form of the fault-injection knobs.
type FaultsRequest struct {
	Seed      uint64  `json:"seed"`
	DropRate  float64 `json:"drop_rate,omitempty"`
	DupRate   float64 `json:"dup_rate,omitempty"`
	DelayRate float64 `json:"delay_rate,omitempty"`
}

// Size bounds on a wire config. A machine allocates its thread
// contexts (about 1.1 KB each) and its topology's link queues before
// the first cycle, and running out of memory kills the daemon for every
// tenant, so a request may ask for at most this many of each. The
// library path (machine.Config.Validate) stays unbounded.
const (
	maxWireContexts = 1 << 16 // procs × threads
	maxWireNodes    = 1 << 16 // topology nodes
)

// ToMachine resolves the wire config into a validated machine.Config
// within the wire size bounds.
func (c *ConfigRequest) ToMachine() (machine.Config, error) {
	model, err := machine.ParseModel(c.Model)
	if err != nil {
		return machine.Config{}, err
	}
	cfg := machine.Config{
		Procs: c.Procs, Threads: c.Threads, Model: model,
		Latency: c.Latency, SwitchCost: c.SwitchCost, RunLimit: c.RunLimit,
		CritPriority: c.CritPriority,
		GroupWindow:  c.GroupWindow, WindowCells: c.WindowCells,
		LatencyJitter: c.LatencyJitter, MaxCycles: c.MaxCycles,
	}
	if t := c.Topology; t != nil {
		kind, err := net.ParseTopology(t.Kind)
		if err != nil {
			return machine.Config{}, err
		}
		cfg.Topology = net.TopologyConfig{
			Kind: kind, Nodes: t.Nodes, HopCycles: t.HopCycles,
			ChannelBits: t.ChannelBits, MemCycles: t.MemCycles,
		}
	}
	if f := c.Faults; f != nil {
		cfg.Faults = net.FaultConfig{
			Enabled: true, Seed: f.Seed,
			DropRate: f.DropRate, DupRate: f.DupRate, DelayRate: f.DelayRate,
		}
	}
	if err := cfg.Validate(); err != nil {
		return machine.Config{}, err
	}
	eff := cfg.Effective()
	if eff.Procs > maxWireContexts/eff.Threads {
		return machine.Config{}, fmt.Errorf("%d procs × %d threads exceeds the %d thread contexts a request may ask for", eff.Procs, eff.Threads, maxWireContexts)
	}
	if eff.Topology.Nodes > maxWireNodes {
		return machine.Config{}, fmt.Errorf("topology of %d nodes exceeds the %d a request may ask for", eff.Topology.Nodes, maxWireNodes)
	}
	return cfg, nil
}

// RunRequest is the /v1/run body.
type RunRequest struct {
	App       string        `json:"app"`
	Scale     string        `json:"scale,omitempty"` // default "quick"
	Config    ConfigRequest `json:"config"`
	Metrics   bool          `json:"metrics,omitempty"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
}

// RunResponse is the /v1/run reply.
type RunResponse struct {
	Schema         int                 `json:"schema"`
	App            string              `json:"app"`
	Scale          string              `json:"scale"`
	Model          string              `json:"model"`
	Cycles         int64               `json:"cycles"`
	Instrs         int64               `json:"instrs"`
	BaselineCycles int64               `json:"baseline_cycles"`
	Speedup        float64             `json:"speedup"`
	Efficiency     float64             `json:"efficiency"`
	Utilization    float64             `json:"utilization"`
	Metrics        *metrics.RunMetrics `json:"metrics,omitempty"`
}

// BatchRequest is the /v1/batch body: a job list over one scale.
// IdempotencyKey (or the Idempotency-Key header, which wins) switches a
// journaling server to the async path: the request is journaled, acked
// with 202 {job_id}, and survives crashes; resubmitting the same key is
// a no-op that returns the same job.
type BatchRequest struct {
	Scale          string     `json:"scale,omitempty"`
	Jobs           []BatchJob `json:"jobs"`
	Metrics        bool       `json:"metrics,omitempty"`
	TimeoutMS      int64      `json:"timeout_ms,omitempty"`
	IdempotencyKey string     `json:"idempotency_key,omitempty"`
}

// BatchJob is one (application, configuration) pair.
type BatchJob struct {
	App    string        `json:"app"`
	Config ConfigRequest `json:"config"`
}

// BatchResponse is the /v1/batch reply. Results and Errors are
// job-aligned with the request: a canceled or failed job reports its
// error string and a null result, completed jobs report results even
// when the batch as a whole failed (the library's partial-results
// contract, surfaced over the wire).
type BatchResponse struct {
	Schema  int               `json:"schema"`
	Scale   string            `json:"scale"`
	Results []*BatchJobResult `json:"results"`
	Errors  []string          `json:"errors"`
	Failed  int               `json:"failed"`
}

// BatchJobResult is one job's measurements.
type BatchJobResult struct {
	App        string  `json:"app"`
	Model      string  `json:"model"`
	Cycles     int64   `json:"cycles"`
	Instrs     int64   `json:"instrs"`
	Efficiency float64 `json:"efficiency"`
}

// errorResponse is every endpoint's failure body.
type errorResponse struct {
	Error string `json:"error"`
}

// encodeJSON renders v exactly as writeJSON sends it. The journal's
// done records store these bytes, so a replayed job's response is
// byte-identical to a live one.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// writeJSON emits v with the indentation the golden files use.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(encodeJSON(v))
}

// httpError maps an error to a status + JSON body. Cancellation maps to
// 504 (deadline) / 499-style 503 (client gone); validation and unknown
// names map to 400; everything else is a 500.
func (s *Server) httpError(w http.ResponseWriter, err error, fallback int) {
	status := fallback
	switch {
	case errors.Is(err, ErrDoomed):
		// Deadline-aware shed: the queue wait would consume the request's
		// deadline, so reject now with a come-back hint instead of holding
		// a slot until the inevitable 504.
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, machine.ErrMaxCycles):
		status = http.StatusUnprocessableEntity
	}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		// 503s are transient by contract (drain, forwarding outage): give
		// clients the same jittered come-back hint the 429 path sends, so
		// a draining node's rejected herd does not return in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfterBase)))
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// rejectFull is the 429 + Retry-After admission rejection. The hint is
// jittered around retryAfterBase so a herd of rejected clients does not
// come back in lockstep (see RetryDelay for the client-side half).
func (s *Server) rejectFull(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfterBase)))
	writeJSON(w, http.StatusTooManyRequests,
		errorResponse{Error: fmt.Sprintf("job queue full (%d running, %d queued); retry later",
			s.gate.Inflight(), s.gate.Queued())})
}

// requestContext derives the run's context: the HTTP request context
// (so a disconnecting client cancels its simulation) bounded by the
// requested or default deadline, capped at MaxTimeout.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// sessionKey names the shared session for a scale/metrics pair. It is
// also the cluster route key for sync requests: every request for the
// same session lands on the same node, so the memo cache accumulates
// fleet-wide instead of fragmenting per node.
func sessionKey(scale app.Scale, collectMetrics bool) string {
	key := scale.String()
	if collectMetrics {
		key += "+metrics"
	}
	return key
}

// session resolves the shared session for a scale/metrics pair. The
// metrics flag forks the session key rather than mutating a shared
// session: Session.CollectMetrics must be set before the first Run and
// requests run concurrently.
func (s *Server) session(scale app.Scale, collectMetrics bool) *core.Session {
	return s.sessions.Get(sessionKey(scale, collectMetrics))
}

// decodeScale parses an optional scale name (default quick).
func decodeScale(name string) (app.Scale, error) {
	if name == "" {
		return app.Quick, nil
	}
	return app.ParseScale(name)
}

// validateRun resolves a run request's scale, application and machine
// configuration — the validation half shared by the v1 handler and the
// v2 degenerate-job path, so both surfaces accept exactly the same
// requests.
func (s *Server) validateRun(req *RunRequest) (app.Scale, *app.App, machine.Config, error) {
	scale, err := decodeScale(req.Scale)
	if err != nil {
		return 0, nil, machine.Config{}, err
	}
	cfg, err := req.Config.ToMachine()
	if err != nil {
		return 0, nil, machine.Config{}, err
	}
	a, err := apps.New(req.App, scale)
	if err != nil {
		return 0, nil, machine.Config{}, err
	}
	return scale, a, cfg, nil
}

// acquireGate admits through the shared worker gate, accounting the
// wait as the tenant's queue time.
func (s *Server) acquireGate(ctx context.Context, t *tenant) (func(), error) {
	start := time.Now()
	release, err := s.gate.Acquire(ctx)
	if t != nil {
		t.queueMS.Add(time.Since(start).Milliseconds())
	}
	return release, err
}

// execRun is the execution core of a sync run: admit, simulate under
// ctx, fold in the baseline, account the tenant's usage. Both the v1
// handler and POST /v2/jobs delegate here — the returned document is
// the one byte-layout both surfaces serve.
func (s *Server) execRun(ctx context.Context, t *tenant, scale app.Scale, a *app.App, cfg machine.Config, collectMetrics bool) (*RunResponse, error) {
	if s.shedMetricsNow(collectMetrics) {
		collectMetrics = false // brownout: results keep flowing, garnish does not
	}
	release, err := s.acquireGate(ctx, t)
	if err != nil {
		return nil, err
	}
	defer release()
	sess := s.session(scale, collectMetrics)
	res, err := sess.RunContext(ctx, a, cfg)
	if err != nil {
		return nil, err
	}
	base, err := sess.BaselineContext(ctx, a)
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.jobs.Add(1)
		t.simCycles.Add(res.Cycles)
	}
	return &RunResponse{
		Schema:         ResponseSchemaVersion,
		App:            a.Name,
		Scale:          scale.String(),
		Model:          res.Config.Model.String(),
		Cycles:         res.Cycles,
		Instrs:         res.Instrs,
		BaselineCycles: base,
		Speedup:        res.Speedup(base),
		Efficiency:     res.Efficiency(base),
		Utilization:    res.Utilization(),
		Metrics:        res.Metrics,
	}, nil
}

// handleRun runs one simulation: decode + validate, admit, simulate
// under the request deadline, report the paper metrics (and the
// cycle-accounting record when asked). A thin shim over execRun — the
// same core the v2 surface uses — rendering the legacy v1 body.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var req RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	scale, a, cfg, err := s.validateRun(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	t, ok := s.admitTenant(w, r, false)
	if !ok {
		return
	}
	// Cluster mode: runs route by session key, so the whole fleet shares
	// one memo cache per scale instead of one per node.
	if s.forwardIfRemote(w, r, cluster.SessionRouteKey(sessionKey(scale, req.Metrics)), body) {
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.execRun(ctx, t, scale, a, cfg, req.Metrics)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejectFull(w)
			return
		}
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxBatchJobs bounds the job list of one batch request.
const maxBatchJobs = 256

// parseBatch validates a batch body and resolves its jobs, with the
// job index in every error. The sync handler and the async dispatcher
// share it so the two paths accept exactly the same requests.
func (s *Server) parseBatch(req *BatchRequest) (app.Scale, []core.Job, error) {
	if len(req.Jobs) == 0 {
		return 0, nil, errors.New("batch needs at least one job")
	}
	if len(req.Jobs) > maxBatchJobs {
		return 0, nil, fmt.Errorf("batch of %d jobs exceeds the %d-job limit", len(req.Jobs), maxBatchJobs)
	}
	scale, err := decodeScale(req.Scale)
	if err != nil {
		return 0, nil, err
	}
	jobs := make([]core.Job, len(req.Jobs))
	for i := range req.Jobs {
		cfg, err := req.Jobs[i].Config.ToMachine()
		if err != nil {
			return 0, nil, fmt.Errorf("job %d: %v", i, err)
		}
		a, err := apps.New(req.Jobs[i].App, scale)
		if err != nil {
			return 0, nil, fmt.Errorf("job %d: %v", i, err)
		}
		jobs[i] = core.Job{App: a, Cfg: cfg}
	}
	return scale, jobs, nil
}

// buildBatchResponse folds job-aligned results and errors into the wire
// response. It is the single rendering path for sync and async batches,
// which is what makes a journal-replayed job's response byte-identical
// to a live one. A non-BatchError batchErr is request-level and comes
// back as the error.
func buildBatchResponse(ctx context.Context, sess *core.Session, scale app.Scale, jobs []core.Job, results []*machine.Result, batchErr error) (*BatchResponse, error) {
	var be *core.BatchError
	if batchErr != nil && !errors.As(batchErr, &be) {
		return nil, batchErr
	}
	resp := &BatchResponse{
		Schema:  ResponseSchemaVersion,
		Scale:   scale.String(),
		Results: make([]*BatchJobResult, len(jobs)),
		Errors:  make([]string, len(jobs)),
	}
	for i, res := range results {
		if be != nil && be.Errs[i] != nil {
			resp.Errors[i] = be.Errs[i].Error()
			resp.Failed++
			continue
		}
		if res == nil {
			continue
		}
		base, err := sess.BaselineContext(ctx, jobs[i].App)
		if err != nil {
			resp.Errors[i] = err.Error()
			resp.Failed++
			continue
		}
		resp.Results[i] = &BatchJobResult{
			App:        jobs[i].App.Name,
			Model:      res.Config.Model.String(),
			Cycles:     res.Cycles,
			Instrs:     res.Instrs,
			Efficiency: res.Efficiency(base),
		}
	}
	return resp, nil
}

// execBatch is the execution core of a sync batch: admit, run the job
// list through the session's worker pool, fold job-aligned partial
// results, account the tenant's usage. Shared by the v1 handler and
// the v2 sync-batch path, so both surfaces return the same document.
// An all-jobs-failed batch under a dead deadline surfaces the context
// error (the caller maps it like a run).
func (s *Server) execBatch(ctx context.Context, t *tenant, scale app.Scale, jobs []core.Job, collectMetrics bool) (*BatchResponse, error) {
	if s.shedMetricsNow(collectMetrics) {
		collectMetrics = false // brownout: see execRun
	}
	release, err := s.acquireGate(ctx, t)
	if err != nil {
		return nil, err
	}
	defer release()
	sess := s.session(scale, collectMetrics)
	results, batchErr := sess.RunBatchContext(ctx, jobs)
	resp, err := buildBatchResponse(ctx, sess, scale, jobs, results, batchErr)
	if err != nil {
		return nil, err
	}
	// A batch with failures still returns 200: the job-aligned errors
	// carry the detail and the completed jobs' results are usable. An
	// all-jobs-failed batch under a dead deadline maps like a run.
	if resp.Failed == len(jobs) && batchErr != nil {
		if errors.Is(batchErr, context.DeadlineExceeded) || errors.Is(batchErr, context.Canceled) {
			return nil, batchErr
		}
	}
	if t != nil {
		var cycles int64
		for _, res := range results {
			if res != nil {
				cycles += res.Cycles
			}
		}
		t.jobs.Add(1)
		t.simCycles.Add(cycles)
	}
	return resp, nil
}

// handleBatch runs a job list through the session's worker pool under
// one admission slot and the request deadline, returning job-aligned
// partial results. With an idempotency key on a journaling server the
// request instead becomes a durable async job: journaled, acked with
// 202, polled on /v1/batch/jobs/{id}.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	scale, jobs, err := s.parseBatch(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	t, ok := s.admitTenant(w, r, false)
	if !ok {
		return
	}

	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		key = req.IdempotencyKey
	}
	if key != "" && s.jm != nil {
		// Async jobs route by job id: the ring owner journals and runs
		// the job, its successors hold replicas.
		if s.forwardIfRemote(w, r, cluster.JobRouteKey(JobID(key)), body) {
			return
		}
		job, err := s.jm.submit(key, t.name, body)
		if err != nil {
			s.httpError(w, err, http.StatusServiceUnavailable)
			return
		}
		status, ckpt, _ := job.state()
		writeJSON(w, http.StatusAccepted, &JobStatus{
			Schema: ResponseSchemaVersion, JobID: job.id, Status: status,
			Checkpoint: ckpt, RetryAfterMS: retryAfterMS(retryAfterBase),
		})
		return
	}
	if s.forwardIfRemote(w, r, cluster.SessionRouteKey(sessionKey(scale, req.Metrics)), body) {
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.execBatch(ctx, t, scale, jobs, req.Metrics)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejectFull(w)
			return
		}
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJob reports an async job: 404 for unknown ids (or when
// journaling is off), 202 + status while queued or running, and the
// recorded response bytes verbatim once done.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.jm == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "async jobs disabled: server runs without a journal"})
		return
	}
	if !s.jm.owns(r.PathValue("id")) && s.forwardIfRemote(w, r, cluster.JobRouteKey(r.PathValue("id")), nil) {
		return
	}
	job := s.jm.get(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job id"})
		return
	}
	status, ckpt, resp := job.state()
	if status != JobDone {
		writeJSON(w, http.StatusAccepted, &JobStatus{
			Schema: ResponseSchemaVersion, JobID: job.id, Status: status,
			Checkpoint: ckpt, RetryAfterMS: retryAfterMS(retryAfterBase),
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp)
}

// handleExperiment renders one paper table/figure as text/plain, reusing
// the scale's shared session memo across requests. It admits the
// tenant and takes the gate as a run does.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	e, err := exp.ByID(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	q := r.URL.Query()
	scale, err := decodeScale(q.Get("scale"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	opts := []exp.Option{exp.WithScale(scale)}
	if v := q.Get("latency"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "latency: " + err.Error()})
			return
		}
		opts = append(opts, exp.WithLatency(n))
	}
	if v := q.Get("maxmt"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "maxmt: " + err.Error()})
			return
		}
		opts = append(opts, exp.WithMaxMT(n))
	}
	if v := q.Get("kernels"); v != "" {
		opts = append(opts, exp.WithKernels(strings.Split(v, ",")...))
	}
	if v := q.Get("topologies"); v != "" {
		opts = append(opts, exp.WithTopologies(strings.Split(v, ",")...))
	}
	var timeoutMS int64
	if v := q.Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "timeout_ms: " + err.Error()})
			return
		}
		timeoutMS = n
	}

	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()

	var buf strings.Builder
	// Share the scale's session memo across experiment requests, but
	// keep each request's context its own: WithSession after WithScale,
	// WithContext per request.
	opts = append(opts, exp.WithSession(s.session(scale, false)), exp.WithContext(ctx))
	o := exp.New(&buf, opts...)
	if err := o.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	t, ok := s.admitTenant(w, r, false)
	if !ok {
		return
	}

	release, err := s.acquireGate(ctx, t)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejectFull(w)
			return
		}
		s.httpError(w, err, http.StatusServiceUnavailable)
		return
	}
	defer release()

	if err := e.Run(o); err != nil {
		s.httpError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "== %s: %s\npaper: %s\n\n%s", e.ID, e.Title, e.Paper, buf.String())
}

// healthzResponse is the /v1/healthz body: liveness plus the admission
// gauges, so a load balancer (or the smoke test) can see queue pressure
// without scraping expvar.
type healthzResponse struct {
	Status             string `json:"status"`
	Inflight           int64  `json:"inflight"`
	Queued             int64  `json:"queued"`
	Sessions           int    `json:"sessions"`
	UptimeMS           int64  `json:"uptime_ms"`
	JournalReplayed    int64  `json:"journal_replayed"`
	CheckpointsWritten int64  `json:"checkpoints_written"`
	// Goroutines is the process gauge (leak canary for chaos runs).
	Goroutines int `json:"goroutines"`
	// Doomed counts requests shed by the deadline-aware admission check.
	Doomed   int64           `json:"doomed"`
	Brownout *brownoutStatus `json:"brownout,omitempty"`
	Tenants  []TenantUsage   `json:"tenants,omitempty"`
	Cluster  *healthzCluster `json:"cluster,omitempty"`
}

// healthzCluster is the fleet summary inside /v1/healthz (cluster mode
// only): this node's identity plus peer health and failover counters.
type healthzCluster struct {
	Self      string                  `json:"self"`
	Nodes     int                     `json:"nodes"`
	Alive     int                     `json:"alive"`
	Dead      int                     `json:"dead"`
	Claims    int64                   `json:"claims"`
	Forwards  int64                   `json:"forwards"`
	Handoffs  int64                   `json:"handoffs"`
	Hedges    int64                   `json:"hedges"`
	HedgeWins int64                   `json:"hedge_wins"`
	Breakers  []cluster.BreakerStatus `json:"breakers,omitempty"`
}

// healthz assembles the health document shared by /v1/healthz and
// /v2/healthz. Tenant usage merges this node's local table with the
// latest gossiped reports from peers (cluster mode), so accounting is
// visible fleet-wide and survives failover.
func (s *Server) healthz() *healthzResponse {
	s.brownedOut() // fold the current saturation so the report is fresh
	resp := &healthzResponse{
		Status:             "ok",
		Inflight:           s.gate.Inflight(),
		Queued:             s.gate.Queued(),
		Sessions:           s.sessions.Len(),
		UptimeMS:           time.Since(s.started).Milliseconds(),
		JournalReplayed:    s.JournalReplayed(),
		CheckpointsWritten: s.CheckpointsWritten(),
		Goroutines:         runtime.NumGoroutine(),
		Doomed:             s.gate.Doomed(),
		Tenants:            s.tenants.table(),
	}
	if s.bo != nil {
		resp.Brownout = s.bo.status()
	}
	if s.cluster != nil {
		resp.Tenants = mergeUsage(resp.Tenants, s.cluster.node.RemoteUsage())
		alive, dead := s.cluster.node.AliveCount()
		resp.Cluster = &healthzCluster{
			Self:      s.cluster.node.Self(),
			Nodes:     len(s.cluster.node.Members()),
			Alive:     alive,
			Dead:      dead,
			Claims:    s.cluster.claims.Load(),
			Forwards:  s.cluster.forwards.Load(),
			Handoffs:  s.cluster.handoffs.Load(),
			Hedges:    s.cluster.hedges.Load(),
			HedgeWins: s.cluster.hedgeWins.Load(),
			Breakers:  s.cluster.node.BreakerStates(),
		}
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthz())
}
