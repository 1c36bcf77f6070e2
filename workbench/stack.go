package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mtsim/internal/cluster"
	"mtsim/internal/serve"
	"mtsim/internal/serve/client"
)

// Load shape, sized to the reference host's two CPUs: two closed-loop
// clients over two keep-alive connections, two server workers.
const (
	loadClients     = 2
	serverWorkers   = 2
	checkpointEvery = 100_000
)

// node is one in-process serving node on a loopback httptest server.
type node struct {
	id  string
	srv *serve.Server
	ts  *httptest.Server
	cn  *cluster.Node // nil when solo
}

// stack is the serving side of a run: one solo node or a two-node
// fleet, and the load client fronting it.
type stack struct {
	nodes        []*node
	front, owner *node // the node the client talks to, the node that runs
	cli          *client.Client
	transport    *http.Transport
	dir          string // journals; removed by close
}

// newStack starts n nodes with serve.Config{Workers: 2}; n > 1 makes a
// fleet of journaling, clustered nodes whose client fronts the node
// that does not own the sync-run route, so every run takes one forward
// hop. journal arms async jobs on a solo node. With tr set, the
// tracing middleware and cluster transport are installed.
func newStack(n int, journal bool, tr *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
			st = nil
		}
	}()
	if journal || n > 1 {
		if st.dir, err = os.MkdirTemp("", "workbench-"); err != nil {
			return st, err
		}
	}
	// Listeners first, so every node's peer list knows every URL. An
	// unstarted listener queues early probes until its node serves.
	var peers []cluster.Peer
	for i := 0; i < n; i++ {
		nd := &node{id: fmt.Sprintf("n%d", i+1), ts: httptest.NewUnstartedServer(nil)}
		st.nodes = append(st.nodes, nd)
		peers = append(peers, cluster.Peer{ID: nd.id, URL: "http://" + nd.ts.Listener.Addr().String()})
	}
	for _, nd := range st.nodes {
		nd.srv = serve.New(serve.Config{Workers: serverWorkers, CheckpointEvery: checkpointEvery})
		if st.dir != "" {
			if _, err := nd.srv.EnableJournal(filepath.Join(st.dir, nd.id+".wal")); err != nil {
				return st, err
			}
		}
		if n > 1 {
			cfg := cluster.Config{Self: nd.id, Peers: peers}
			if tr != nil {
				cfg.Transport = &clusterTransport{tr: tr, node: nd.id, next: http.DefaultTransport}
			}
			if nd.cn, err = nd.srv.EnableCluster(cfg); err != nil {
				return st, err
			}
		}
		var h http.Handler = nd.srv.Handler()
		if tr != nil {
			h = &tracingHandler{tr: tr, node: nd.id, next: h}
		}
		nd.ts.Config.Handler = h
		nd.ts.Start()
	}
	st.front, st.owner = st.nodes[0], st.nodes[0]
	if n > 1 {
		ownerID := st.nodes[0].cn.RouteOwner(cluster.SessionRouteKey("quick"))
		for _, nd := range st.nodes {
			if nd.id == ownerID {
				st.owner = nd
			} else {
				st.front = nd
			}
		}
	}
	st.transport = http.DefaultTransport.(*http.Transport).Clone()
	st.transport.MaxIdleConnsPerHost = loadClients
	st.transport.MaxConnsPerHost = loadClients
	var rt http.RoundTripper = st.transport
	if tr != nil {
		rt = &headerTransport{next: st.transport}
	}
	st.cli = client.New(st.front.ts.URL)
	st.cli.HTTPClient = &http.Client{Transport: rt}
	st.cli.MaxRetries = -1 // a rejection is a failed op, not a wait
	return st, nil
}

// close drains every node (dispatchers, cluster probes, journals), then
// closes the listeners and removes the journals.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, nd := range st.nodes {
		if nd.srv != nil {
			errs = append(errs, nd.srv.Shutdown(ctx))
		}
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	for _, nd := range st.nodes {
		nd.ts.Close()
	}
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}

// journalBytes is the total size of the nodes' journals.
func (st *stack) journalBytes() (int64, error) {
	var total int64
	for _, nd := range st.nodes {
		fi, err := os.Stat(filepath.Join(st.dir, nd.id+".wal"))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
