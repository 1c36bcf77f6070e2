package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/net"
)

// TestRunEndpointTopologyMatchesLibrary: a kernel run on a routed
// topology through the server must reproduce the library path exactly,
// topology-aware round trips included.
func TestRunEndpointTopologyMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"app":"gather","scale":"quick","config":{"procs":4,"threads":2,"model":"switch-on-load","latency":64,"topology":{"kind":"mesh"}}}`
	status, data := postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var got RunResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	sess := core.NewSession()
	a := apps.MustNew("gather", app.Quick)
	cfg := machine.Config{Procs: 4, Threads: 2, Model: machine.SwitchOnLoad, Latency: 64}
	cfg.Topology = net.TopologyConfig{Kind: net.TopoMesh}
	res, err := sess.Run(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != res.Cycles || got.Instrs != res.Instrs {
		t.Errorf("served cycles/instrs = %d/%d, library = %d/%d", got.Cycles, got.Instrs, res.Cycles, res.Instrs)
	}

	// A constant-topology run of the same shape must differ: the mesh's
	// queueing delay is real simulated time, not decoration.
	cfg2 := cfg
	cfg2.Topology = net.TopologyConfig{}
	res2, err := sess.Run(a, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles == res.Cycles {
		t.Errorf("mesh and constant topologies ran in identical %d cycles", res.Cycles)
	}
}

// TestRunEndpointTopologyValidation: the decoder rejects unknown
// topology kinds (listing the valid choices) and invalid compositions
// with a 400 carrying the library's message.
func TestRunEndpointTopologyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantErr string
	}{
		{
			"unknown kind",
			`{"app":"sor","config":{"procs":2,"threads":2,"model":"switch-on-load","latency":64,"topology":{"kind":"torus"}}}`,
			"mesh",
		},
		{
			"topology on ideal",
			`{"app":"sor","config":{"procs":2,"threads":2,"model":"ideal","topology":{"kind":"mesh"}}}`,
			"ideal",
		},
		{
			"shape params on constant",
			`{"app":"sor","config":{"procs":2,"threads":2,"model":"switch-on-load","latency":64,"topology":{"kind":"constant","nodes":8}}}`,
			"constant",
		},
		{
			"negative nodes",
			`{"app":"sor","config":{"procs":2,"threads":2,"model":"switch-on-load","latency":64,"topology":{"kind":"mesh","nodes":-4}}}`,
			"Nodes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRun(t, ts.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", status, body)
			}
			e := envelope(t, body)
			if e.Code != v2CodeBadRequest || !strings.Contains(e.Message, tc.wantErr) {
				t.Errorf("error %s %q, want bad_request mentioning %q", e.Code, e.Message, tc.wantErr)
			}
		})
	}
	// The unknown-kind error must enumerate every valid choice so the
	// client can self-correct.
	status, body := postRun(t, ts.URL,
		`{"app":"sor","config":{"procs":2,"threads":2,"model":"switch-on-load","latency":64,"topology":{"kind":"hypercube"}}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	for _, name := range net.TopologyNames() {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("400 body %s does not list choice %q", body, name)
		}
	}
}

// TestExperimentEndpointTopologyParams: kernels= and topologies= query
// parameters narrow the ablation-topology sweep; unknown names are a
// 400 bad_request listing the valid choices, before any simulation
// runs.
func TestExperimentEndpointTopologyParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v2/experiments/ablation-topology?kernels=gather&topologies=mesh")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	out := string(body)
	if !strings.Contains(out, "gather / mesh") {
		t.Errorf("rendering missing the requested kernel row:\n%s", out)
	}
	if strings.Contains(out, "hashjoin /") || strings.Contains(out, "/ dragonfly") {
		t.Errorf("rendering includes rows the query excluded:\n%s", out)
	}

	for _, tc := range []struct{ name, query, wantErr string }{
		{"unknown kernel", "kernels=nope", "unknown kernel"},
		{"unknown topology", "topologies=torus", "mesh"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + "/v2/experiments/ablation-topology?" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			if e := envelope(t, body); e.Code != v2CodeBadRequest || !strings.Contains(e.Message, tc.wantErr) {
				t.Errorf("400 body %s is not a bad_request mentioning %q", body, tc.wantErr)
			}
		})
	}
}
