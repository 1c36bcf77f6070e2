// Command mtsimd serves simulations over HTTP/JSON: the library's
// context-first API behind bounded admission control, per-request
// deadlines, and graceful drain. See internal/serve for the endpoints
// and the README for a curl quick-start.
//
// Usage:
//
//	mtsimd [-addr :8080] [-workers N] [-queue N] [-timeout 60s] [-drain 30s]
//	       [-journal PATH] [-checkpoint-every N]
//	       [-tenants name:weight:rate:burst[:apikey],...] [-quota rate:burst]
//	       [-fair-share] [-dispatchers N]
//	       [-node-id ID -peers id1=url1,id2=url2,...] [-heartbeat 500ms]
//	       [-lease-ttl 3s] [-replicas 2]
//	       [-breaker-threshold 5] [-breaker-cooldown 2s] [-hedge-fraction 0.1]
//	       [-brownout-enter 2s] [-brownout-exit 3s]
//	       [-chaos SCHEDULE -chaos-seed N]
//
// -tenants declares the serving plane's tenants: a fair-share weight
// for the async scheduler, a token-bucket admission quota (requests/s
// and burst; 0:0 = unlimited) and optionally an API key. Requests
// carry their tenant as "Authorization: Bearer <apikey>" or an
// X-Tenant-ID header; everything else is the "anonymous" tenant under
// the -quota default. -fair-share (default on) drains async jobs
// deficit-round-robin across per-tenant queues so one tenant's flood
// cannot starve another; per-tenant usage shows up in /v1/healthz,
// /v2/healthz and expvar.
//
// -journal enables crash-tolerant async batch jobs: /v1/batch requests
// carrying an Idempotency-Key are journaled to PATH (write-ahead,
// fsync'd), checkpointed every N cycles, and survive even a SIGKILL —
// on restart the journal replays and unfinished jobs resume from their
// latest checkpoint to byte-identical responses.
//
// -node-id and -peers (which require -journal) join the daemon to a
// multi-node fleet: peers probe each other's health, a consistent-hash
// ring routes every request to its owner node (any node can front the
// cluster and forwards the rest), async job state replicates to ring
// successors, and when a node dies its expired job leases are claimed
// and resumed by the survivors — still to byte-identical responses. A
// graceful drain hands owned jobs to live successors before exit. See
// GET /v1/cluster for topology, health, breakers, and the lease table.
//
// Resilience knobs: every intra-cluster call feeds a per-peer circuit
// breaker (-breaker-threshold consecutive transport failures open it;
// after -breaker-cooldown a single half-open probe decides). Forwarded
// idempotent reads may be hedged to the next ring successor after a
// latency-derived delay, with -hedge-fraction bounding the extra
// traffic. -brownout-enter/-brownout-exit tune the hysteretic overload
// mode that sheds metrics collection and new SSE subscriptions before
// the server refuses real work.
//
// -chaos arms a deterministic fault-injection schedule on the node's
// outbound intra-cluster transport — partitions, drops, delays, and
// reply corruption per peer and time window, every decision drawn from
// -chaos-seed so a run replays exactly. Completed simulation results
// stay byte-identical under any schedule; only availability and
// latency degrade. For testing fleets, not production.
//
// Before listening, the daemon builds every application at quick scale,
// grouped variants included (a few milliseconds), so no request pays for
// a kernel build; medium and full instances are built on first use and
// kept for the life of the process.
//
// SIGTERM/SIGINT starts a graceful drain: listeners close immediately,
// in-flight simulations run to completion until -drain expires, then
// their contexts are canceled and the event loops unwind cooperatively
// (an async job aborted this way stays resumable). The journal is
// flushed and closed before exit. A clean drain (either way) exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/cluster"
	"mtsim/internal/serve"
)

// parseTenants decodes the -tenants flag:
// "name:weight:rate:burst[:apikey],..." — weight is the fair-share
// scheduler weight, rate/burst the token-bucket admission quota
// (0:0 = unlimited), apikey an optional Bearer credential that
// resolves to the tenant.
func parseTenants(s string) ([]serve.TenantConfig, error) {
	var out []serve.TenantConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 4 || len(fields) > 5 {
			return nil, fmt.Errorf("bad -tenants entry %q, want name:weight:rate:burst[:apikey]", part)
		}
		tc := serve.TenantConfig{Name: fields[0]}
		if tc.Name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q: empty name", part)
		}
		var err error
		if tc.Weight, err = strconv.Atoi(fields[1]); err != nil || tc.Weight < 0 {
			return nil, fmt.Errorf("bad -tenants entry %q: weight %q", part, fields[1])
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || rate < 0 {
			return nil, fmt.Errorf("bad -tenants entry %q: rate %q", part, fields[2])
		}
		burst, err := strconv.Atoi(fields[3])
		if err != nil || burst < 0 {
			return nil, fmt.Errorf("bad -tenants entry %q: burst %q", part, fields[3])
		}
		tc.Rate, tc.Burst = rate, burst
		if len(fields) == 5 && fields[4] != "" {
			tc.APIKeys = []string{fields[4]}
		}
		out = append(out, tc)
	}
	return out, nil
}

// parseQuota decodes the -quota flag: "rate:burst" (the default
// admission quota of tenants not named by -tenants; empty or 0:0 =
// unlimited).
func parseQuota(s string) (serve.Quota, error) {
	if s == "" {
		return serve.Quota{}, nil
	}
	rateStr, burstStr, ok := strings.Cut(s, ":")
	if !ok {
		return serve.Quota{}, fmt.Errorf("bad -quota %q, want rate:burst", s)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate < 0 {
		return serve.Quota{}, fmt.Errorf("bad -quota %q: rate %q", s, rateStr)
	}
	burst, err := strconv.Atoi(burstStr)
	if err != nil || burst < 0 {
		return serve.Quota{}, fmt.Errorf("bad -quota %q: burst %q", s, burstStr)
	}
	return serve.Quota{Rate: rate, Burst: burst}, nil
}

// parsePeers decodes the -peers flag: "id1=url1,id2=url2,...".
func parsePeers(s string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q, want id=url", part)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers is empty")
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrently running requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting beyond the running ones (0 = default 64); excess gets 429")
	sessWorkers := flag.Int("session-workers", 0, "per-session simulation pool width (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 60s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = 10m)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window")
	journal := flag.String("journal", "", "write-ahead job journal path; enables crash-tolerant async batch jobs")
	ckptEvery := flag.Int64("checkpoint-every", 0, "cycles between async-job checkpoints (0 = 100000)")
	tenants := flag.String("tenants", "", "declared tenants, name:weight:rate:burst[:apikey],...")
	quota := flag.String("quota", "", "default admission quota for undeclared tenants, rate:burst (empty = unlimited)")
	fairShare := flag.Bool("fair-share", true, "drain async jobs deficit-round-robin per tenant (false = legacy FIFO)")
	dispatchers := flag.Int("dispatchers", 0, "async dispatcher pool size (0 = workers/2)")
	nodeID := flag.String("node-id", "", "this node's cluster id; enables cluster mode with -peers (requires -journal)")
	peers := flag.String("peers", "", "comma-separated id=url cluster membership, self included")
	heartbeat := flag.Duration("heartbeat", 0, "cluster health-probe period (0 = 500ms)")
	leaseTTL := flag.Duration("lease-ttl", 0, "job lease validity without renewal (0 = 3s)")
	replicas := flag.Int("replicas", 0, "nodes holding each async job's state, owner included (0 = 2)")
	chaos := flag.String("chaos", "", "seeded fault-injection schedule for intra-cluster calls, e.g. \"peer=n2,from=2s,to=8s,partition;peer=*,delay=0.3@50ms-200ms\" (requires cluster mode)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "root seed of the chaos schedule's deterministic decision stream")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive transport failures that trip a peer's circuit breaker (0 = 5, negative disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 2s)")
	hedgeFraction := flag.Float64("hedge-fraction", 0, "fraction of forwarded reads allowed a hedged duplicate (0 = 0.1, negative disables)")
	brownoutEnter := flag.Duration("brownout-enter", 0, "sustained high queue saturation before brownout mode (0 = 2s, negative disables)")
	brownoutExit := flag.Duration("brownout-exit", 0, "sustained low queue saturation before brownout lifts (0 = 3s)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mtsimd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	tenantList, err := parseTenants(*tenants)
	if err != nil {
		log.Fatalf("mtsimd: %v", err)
	}
	defQuota, err := parseQuota(*quota)
	if err != nil {
		log.Fatalf("mtsimd: %v", err)
	}
	scheduler := serve.SchedulerFair
	if !*fairShare {
		scheduler = serve.SchedulerFIFO
	}
	srv := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		SessionWorkers:  *sessWorkers,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		CheckpointEvery: *ckptEvery,
		Tenants:         tenantList,
		DefaultQuota:    defQuota,
		Scheduler:       scheduler,
		Dispatchers:     *dispatchers,
		HedgeFraction:   *hedgeFraction,
		BrownoutEnter:   *brownoutEnter,
		BrownoutExit:    *brownoutExit,
	})
	srv.PublishVars()
	if *journal != "" {
		replayed, err := srv.EnableJournal(*journal)
		if err != nil {
			log.Fatalf("mtsimd: %v", err)
		}
		log.Printf("mtsimd: journal %s: %d jobs replayed", *journal, replayed)
	}
	if (*nodeID == "") != (*peers == "") {
		log.Fatalf("mtsimd: -node-id and -peers must be set together")
	}
	if *chaos != "" && *nodeID == "" {
		log.Fatalf("mtsimd: -chaos requires cluster mode (-node-id and -peers)")
	}
	if *nodeID != "" {
		peerList, err := parsePeers(*peers)
		if err != nil {
			log.Fatalf("mtsimd: %v", err)
		}
		cfg := cluster.Config{
			Self:             *nodeID,
			Peers:            peerList,
			HeartbeatEvery:   *heartbeat,
			LeaseTTL:         *leaseTTL,
			Replicas:         *replicas,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		}
		if *chaos != "" {
			rules, err := cluster.ParseChaos(*chaos)
			if err != nil {
				log.Fatalf("mtsimd: %v", err)
			}
			cfg.Transport = cluster.NewChaosTransport(*chaosSeed, rules, peerList, nil)
			log.Printf("mtsimd: chaos transport armed: %d rules, seed %d", len(rules), *chaosSeed)
		}
		node, err := srv.EnableCluster(cfg)
		if err != nil {
			log.Fatalf("mtsimd: %v", err)
		}
		log.Printf("mtsimd: cluster node %s joined a %d-node fleet (%d replicas per job)",
			node.Self(), len(peerList), node.Replicas())
	}

	// Applications are built once per process (apps.New); build the
	// default scale's set and grouped variants before listening, so no
	// request pays for a kernel build.
	start, names := time.Now(), apps.AllNames()
	for _, name := range names {
		if _, _, err := apps.MustNew(name, app.Quick).Grouped(); err != nil {
			log.Fatalf("mtsimd: %v", err)
		}
	}
	log.Printf("mtsimd: built %d applications at quick scale in %s", len(names), time.Since(start).Round(time.Millisecond))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	log.Printf("mtsimd: listening on %s", *addr)

	select {
	case err := <-errc:
		// Listener failed before any signal (bad addr, port in use).
		log.Fatalf("mtsimd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("mtsimd: draining (up to %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("mtsimd: drain window expired, canceled remaining runs: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mtsimd: %v", err)
	}
	log.Printf("mtsimd: drained, bye")
}
