// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// front end over the library's context-first API (machine.RunContext →
// core.Session.RunContext → exp rendering) with the properties a shared
// deployment needs and a blocking library call cannot give:
//
//   - bounded admission: at most Workers simulations run concurrently
//     and at most QueueDepth requests wait; everything beyond that is
//     rejected with 429 + Retry-After instead of queueing unboundedly;
//   - per-request deadlines: every run is bounded by a context deadline
//     (client-chosen up to MaxTimeout), and a canceled or disconnected
//     request aborts its simulation cooperatively, freeing the worker;
//   - memo reuse with flat memory: requests share one core.Session per
//     (scale, metrics) pair, so repeated configurations are memo hits,
//     and a session past maxSessionSims simulations is retired, so the
//     result store cannot grow without bound;
//   - observability: queue-depth and inflight expvar gauges, per-request
//     RunMetrics (the internal/metrics schema) on demand.
//
// Endpoints (all JSON unless noted):
//
//	POST /v2/jobs                  submit a job (sync run, sync batch, or
//	                               async batch with an idempotency key)
//	GET  /v2/jobs/{id}             poll an async job
//	GET  /v2/jobs/{id}/events      live progress (Server-Sent Events)
//	GET  /v2/healthz               liveness + queue gauges + tenant usage
//	GET  /v2/experiments/{id}      a rendered paper table/figure (text)
//	GET  /debug/vars               expvar (includes the mtsimd gauges)
//
// Every error body is the one envelope of v2.go. Cluster mode adds the
// node-to-node and operator routes of cluster.go (/v1/cluster and its
// ping, /v1/jobs/{id}/state), whose paths peers depend on.
// Multi-tenancy: requests carry a tenant (Authorization: Bearer API
// key, or the X-Tenant-ID header, else "anonymous"); admission is
// token-bucket per tenant and the async dispatcher drains per-tenant
// queues deficit-round-robin weighted by TenantConfig.Weight.
//
// Results are byte-identical to the library path: the server only ever
// calls the same deterministic entry points the CLI tools use.
package serve

import (
	"context"
	"expvar"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"mtsim/internal/cluster"
	"mtsim/internal/core"
)

// Config parameterizes a Server. The zero value is usable: every field
// defaults sensibly (see withDefaults).
type Config struct {
	// Workers bounds concurrently running requests (default GOMAXPROCS):
	// a sync request or an async job holds one gate slot while it runs.
	// Each may itself fan out over its session's worker pool, a batch's
	// entries side by side; SessionWorkers bounds that inner width.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// running ones (default 64). Excess requests get 429.
	QueueDepth int
	// SessionWorkers bounds each session's inner simulation pool
	// (default 0 = GOMAXPROCS), the width RunBatch and MTSearch fan out
	// to within one request.
	SessionWorkers int
	// DefaultTimeout bounds requests that do not ask for a deadline
	// (default 60s); MaxTimeout caps what they may ask for (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CheckpointEvery is the cycle budget between journal checkpoints
	// of async batch jobs (default 100000). Smaller values bound the
	// re-simulation after a crash more tightly at the cost of more
	// fsync'd snapshot writes. Only used once EnableJournal is called.
	CheckpointEvery int64
	// Tenants declares the known tenants: weights for the fair-share
	// scheduler, token-bucket quotas, API keys. Requests from tenants
	// not listed here (header-derived or anonymous) get DefaultQuota
	// and weight 1.
	Tenants []TenantConfig
	// DefaultQuota is the admission quota for undeclared tenants
	// (zero value = unlimited).
	DefaultQuota Quota
	// Dispatchers sizes the async dispatcher pool (default
	// max(1, Workers/2)). A dispatcher runs one job at a time in one
	// gate slot, its entries side by side on the session's worker pool.
	// Keeping the pool below Workers reserves gate slots for sync
	// requests, so a flood of async submissions cannot starve
	// interactive traffic. With Workers 1 (the default on a 1-CPU host)
	// the pool is still one dispatcher, so there async work can occupy
	// the only worker and sync requests queue behind it.
	Dispatchers int
	// HedgeFraction caps hedged forwarded reads at this fraction of
	// forward traffic (default 0.1; negative disables hedging). Only
	// meaningful in cluster mode.
	HedgeFraction float64
	// BrownoutEnter/BrownoutExit are how long queue saturation (queued
	// / QueueDepth) must hold at or above brownoutHighWater, or at or
	// below brownoutLowWater, before the brownout mode flips (defaults
	// 2s in, 3s out; negative BrownoutEnter disables brownout).
	BrownoutEnter time.Duration
	BrownoutExit  time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100_000
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = c.Workers / 2
		if c.Dispatchers < 1 {
			c.Dispatchers = 1
		}
	}
	if c.HedgeFraction == 0 {
		c.HedgeFraction = 0.1
	}
	if c.BrownoutEnter == 0 {
		c.BrownoutEnter = 2 * time.Second
	}
	if c.BrownoutExit <= 0 {
		c.BrownoutExit = 3 * time.Second
	}
	return c
}

// Server is one simulation service instance. Create with New; it is
// ready to serve via Handler, ListenAndServe, or any http.Server.
type Server struct {
	cfg      Config
	gate     *gate
	sessions *sessionTable
	mux      *http.ServeMux
	started  time.Time
	tenants  *tenantRegistry

	// bo is the brownout controller (nil when disabled by config).
	bo *brownout

	// jm is non-nil once EnableJournal has armed crash-tolerant async
	// batch jobs. Set before serving starts, read-only afterwards.
	jm *jobManager

	// cluster is non-nil once EnableCluster has joined this server to a
	// fleet. Set before serving starts, read-only afterwards.
	cluster *clusterRuntime

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		gate:    newGate(cfg.Workers, cfg.QueueDepth),
		started: time.Now(),
		tenants: newTenantRegistry(cfg.Tenants, cfg.DefaultQuota),
	}
	if cfg.BrownoutEnter > 0 {
		s.bo = newBrownout(cfg.BrownoutEnter, cfg.BrownoutExit)
	}
	s.sessions = newSessionTable(maxSessionSims, func(key string) *core.Session {
		sess := core.NewSession()
		sess.Workers = cfg.SessionWorkers
		// Session flags are fixed at creation (requests share sessions
		// concurrently): the key's +metrics suffix decides collection.
		sess.CollectMetrics = strings.HasSuffix(key, "+metrics")
		return sess
	})
	s.mux = http.NewServeMux()
	// Jobs unified (sync run = degenerate job), one error envelope,
	// tenant/quota fields in every response.
	s.mux.HandleFunc("POST /v2/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v2/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v2/experiments/{id}", s.handleExperiment)
	// Cluster routes are registered unconditionally and answer 404 until
	// EnableCluster arms them, so a solo node's surface is unchanged.
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET "+cluster.PingPath, s.handleClusterPing)
	s.mux.HandleFunc("GET /v1/jobs/{id}/state", s.handleJobStateGet)
	s.mux.HandleFunc("PUT /v1/jobs/{id}/state", s.handleJobStatePut)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	// Every other request, the retired /v1 client routes' included.
	s.mux.HandleFunc("/", s.handleNoRoute)
	return s
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// handleNoRoute answers a request no other route matches with the error
// envelope instead of the mux's plain text: a 405 with an Allow header
// when the path is routed for other methods, else a 404.
func (s *Server) handleNoRoute(w http.ResponseWriter, r *http.Request) {
	var allow []string
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut} {
		if _, pattern := s.mux.Handler(&http.Request{Method: m, Host: r.Host, URL: r.URL}); pattern != "/" {
			allow = append(allow, m)
		}
	}
	if len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
		s.writeV2Error(w, http.StatusMethodNotAllowed, v2CodeBadRequest, r.Method+" not allowed on "+r.URL.Path)
		return
	}
	s.writeV2Error(w, http.StatusNotFound, v2CodeNotFound, "no route for "+r.Method+" "+r.URL.Path)
}

// Inflight and Queued expose the admission gauges (also published as
// expvar by PublishVars and reported by /v2/healthz).
func (s *Server) Inflight() int64 { return s.gate.Inflight() }
func (s *Server) Queued() int64   { return s.gate.Queued() }

// Sessions reports the number of cached sessions.
func (s *Server) Sessions() int { return s.sessions.Len() }

// publishOnce guards the process-global expvar names: expvar.Publish
// panics on duplicates, and tests build many Servers per process.
var publishOnce sync.Once

// PublishVars publishes the server's queue-depth/inflight/session
// gauges as expvar (served on /debug/vars). First caller in the process
// wins; cmd/mtsimd runs one server per process so this is exact there.
func (s *Server) PublishVars() {
	publishOnce.Do(func() {
		expvar.Publish("mtsimd.inflight", expvar.Func(func() any { return s.Inflight() }))
		expvar.Publish("mtsimd.queue_depth", expvar.Func(func() any { return s.Queued() }))
		expvar.Publish("mtsimd.sessions", expvar.Func(func() any { return s.Sessions() }))
		expvar.Publish("mtsimd.journal_replayed", expvar.Func(func() any { return s.JournalReplayed() }))
		expvar.Publish("mtsimd.checkpoints_written", expvar.Func(func() any { return s.CheckpointsWritten() }))
		expvar.Publish("mtsimd.cluster_alive", expvar.Func(func() any {
			if s.cluster == nil {
				return 0
			}
			alive, _ := s.cluster.node.AliveCount()
			return alive
		}))
		expvar.Publish("mtsimd.cluster_dead", expvar.Func(func() any {
			if s.cluster == nil {
				return 0
			}
			_, dead := s.cluster.node.AliveCount()
			return dead
		}))
		expvar.Publish("mtsimd.tenant_usage", expvar.Func(func() any { return s.tenants.table() }))
		expvar.Publish("mtsimd.cluster_claims", expvar.Func(func() any { return s.ClusterClaims() }))
		expvar.Publish("mtsimd.cluster_forwards", expvar.Func(func() any { return s.ClusterForwards() }))
		expvar.Publish("mtsimd.cluster_handoffs", expvar.Func(func() any { return s.ClusterHandoffs() }))
		expvar.Publish("mtsimd.doomed", expvar.Func(func() any { return s.gate.Doomed() }))
		expvar.Publish("mtsimd.brownout", expvar.Func(func() any {
			if s.bo == nil {
				return nil
			}
			return s.bo.status()
		}))
		expvar.Publish("mtsimd.breakers", expvar.Func(func() any {
			if s.cluster == nil {
				return nil
			}
			return s.cluster.node.BreakerStates()
		}))
		expvar.Publish("mtsimd.hedges", expvar.Func(func() any {
			if s.cluster == nil {
				return int64(0)
			}
			return s.cluster.hedges.Load()
		}))
		expvar.Publish("mtsimd.hedge_wins", expvar.Func(func() any {
			if s.cluster == nil {
				return int64(0)
			}
			return s.cluster.hedgeWins.Load()
		}))
	})
}

// ListenAndServe serves on addr until Shutdown (which returns
// http.ErrServerClosed here, like net/http).
func (s *Server) ListenAndServe(addr string) error {
	s.httpMu.Lock()
	s.httpSrv = &http.Server{Addr: addr, Handler: s.mux}
	srv := s.httpSrv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Shutdown gracefully drains a ListenAndServe server: listeners close
// immediately (new requests are refused), in-flight requests run to
// completion, and once ctx expires the remaining request contexts are
// canceled so their simulations abort cooperatively. When journaling is
// enabled, the async dispatcher is drained the same way — the in-flight
// job gets until ctx expires, then is aborted (still resumable from its
// journaled checkpoints) — and the journal is flushed and closed.
// In cluster mode the drain additionally hands every owned unfinished
// job to a live ring successor (with a journaled release) before the
// journal closes, so planned restarts migrate work immediately instead
// of making peers wait out the lease.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.cluster != nil {
		// Stop probing (and claiming) first: a draining node must not
		// adopt new work while it is giving its own away.
		s.cluster.node.Stop()
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
		if err != nil {
			// Drain deadline hit: force-close the stragglers; their
			// request contexts cancel and the event loops unwind.
			_ = srv.Close()
		}
	}
	if s.jm != nil {
		jerr := s.jm.stopDispatcher(ctx)
		if s.cluster != nil {
			hctx := ctx
			if ctx.Err() != nil {
				// The drain deadline went to the in-flight job. The
				// handoff itself is a handful of bounded PUTs, so give it
				// a short independent grace rather than stranding owned
				// jobs until their leases expire on the claimant side.
				var cancel context.CancelFunc
				hctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
			}
			s.handoffLeases(hctx)
		}
		if cerr := s.jm.closeJournal(); jerr == nil {
			jerr = cerr
		}
		if err == nil {
			err = jerr
		}
	}
	return err
}
