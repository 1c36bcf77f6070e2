package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// chaosPeers binds peer ids to a test server's host so the transport
// recognizes the target.
func chaosPeers(ts *httptest.Server) []Peer {
	return []Peer{{ID: "n2", URL: ts.URL}}
}

func TestChaosDecideDeterministic(t *testing.T) {
	rules := []ChaosRule{
		{Peer: "*", Drop: 0.3, DelayRate: 0.5, DelayMin: 10 * time.Millisecond, DelayMax: 50 * time.Millisecond, Corrupt: 0.2},
	}
	a := NewChaosTransport(42, rules, nil, nil)
	b := NewChaosTransport(42, rules, nil, nil)
	c := NewChaosTransport(43, rules, nil, nil)
	same, diff := true, false
	for seq := uint64(0); seq < 200; seq++ {
		da := a.decide("n2", seq, time.Second)
		db := b.decide("n2", seq, time.Second)
		dc := c.decide("n2", seq, time.Second)
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
	}
	if !same {
		t.Fatal("identical seeds produced different decision streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestChaosDecidePerPeerIndependence(t *testing.T) {
	rules := []ChaosRule{{Peer: "*", Drop: 0.5}}
	tr := NewChaosTransport(7, rules, nil, nil)
	diff := false
	for seq := uint64(0); seq < 100; seq++ {
		if tr.decide("n2", seq, 0) != tr.decide("n3", seq, 0) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("peers n2 and n3 share a decision stream")
	}
}

func TestChaosWindowActivation(t *testing.T) {
	rules := []ChaosRule{{Peer: "n2", From: 2 * time.Second, To: 8 * time.Second, Partition: true}}
	tr := NewChaosTransport(1, rules, nil, nil)
	cases := []struct {
		elapsed time.Duration
		drop    bool
	}{
		{time.Second, false},
		{2 * time.Second, true},
		{5 * time.Second, true},
		{8 * time.Second, false}, // window is [From, To)
		{10 * time.Second, false},
	}
	for _, c := range cases {
		if got := tr.decide("n2", 0, c.elapsed).drop; got != c.drop {
			t.Errorf("at %v: drop = %v, want %v", c.elapsed, got, c.drop)
		}
	}
	if tr.decide("n3", 0, 5*time.Second).drop {
		t.Error("partition of n2 dropped a request to n3")
	}
}

func TestChaosTransportDrop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("partitioned request reached the server")
	}))
	defer ts.Close()
	tr := NewChaosTransport(1, []ChaosRule{{Peer: "n2", Partition: true}}, chaosPeers(ts), nil)
	client := &http.Client{Transport: tr}
	_, err := client.Get(ts.URL + "/ping")
	if err == nil {
		t.Fatal("partitioned request succeeded")
	}
	var ce *ChaosError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %v, want *ChaosError", err)
	}
	if got := tr.Stats().Drops; got != 1 {
		t.Fatalf("drops = %d, want 1", got)
	}
}

func TestChaosTransportUnknownHostPassesThrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"ok":true}`)
	}))
	defer ts.Close()
	// Peer list empty: the server's host is unknown to the transport.
	tr := NewChaosTransport(1, []ChaosRule{{Peer: "*", Partition: true}}, nil, nil)
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("pass-through request failed: %v", err)
	}
	resp.Body.Close()
	if got := tr.Stats().Drops; got != 0 {
		t.Fatalf("drops = %d for a non-peer host, want 0", got)
	}
}

func TestChaosTransportCorrupt(t *testing.T) {
	const body = `{"node_id":"n2","leases":[]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}))
	defer ts.Close()
	tr := NewChaosTransport(1, []ChaosRule{{Peer: "n2", Corrupt: 1}}, chaosPeers(ts), nil)
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("corrupted request errored at transport level: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(body) {
		t.Fatalf("corrupt body length = %d, want %d (same length contract)", len(raw), len(body))
	}
	if json.Valid(raw) {
		t.Fatalf("corrupt body still valid JSON: %q", raw)
	}
	// Inverting twice restores the original: the corruption is exactly
	// a byte-wise inversion, nothing lossy.
	for i := range raw {
		raw[i] ^= 0xFF
	}
	if string(raw) != body {
		t.Fatalf("double-inverted body = %q, want %q", raw, body)
	}
	if got := tr.Stats().Corrupts; got != 1 {
		t.Fatalf("corrupts = %d, want 1", got)
	}
}

func TestChaosTransportDelayRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	tr := NewChaosTransport(1, []ChaosRule{
		{Peer: "n2", DelayRate: 1, DelayMin: time.Minute, DelayMax: time.Minute},
	}, chaosPeers(ts), nil)
	client := &http.Client{Transport: tr, Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := client.Get(ts.URL)
	if err == nil {
		t.Fatal("minute-delayed request succeeded under a 50ms timeout")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("delay ignored the request context: waited %v", waited)
	}
	if got := tr.Stats().Delays; got != 1 {
		t.Fatalf("delays = %d, want 1", got)
	}
}

func TestParseChaos(t *testing.T) {
	spec := "peer=n2,from=2s,to=8s,partition; peer=*,drop=0.25,delay=0.5@50ms-200ms,corrupt=0.1"
	rules, err := ParseChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	r0 := rules[0]
	if r0.Peer != "n2" || r0.From != 2*time.Second || r0.To != 8*time.Second || !r0.Partition {
		t.Fatalf("rule 0 = %+v", r0)
	}
	r1 := rules[1]
	if r1.Peer != "*" || r1.Drop != 0.25 || r1.DelayRate != 0.5 ||
		r1.DelayMin != 50*time.Millisecond || r1.DelayMax != 200*time.Millisecond || r1.Corrupt != 0.1 {
		t.Fatalf("rule 1 = %+v", r1)
	}
	// Single-point delay: "delay=1@300ms" means exactly 300ms.
	rules, err = ParseChaos("peer=n2,delay=1@300ms")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].DelayMin != 300*time.Millisecond || rules[0].DelayMax != 300*time.Millisecond {
		t.Fatalf("point delay = [%v, %v], want [300ms, 300ms]", rules[0].DelayMin, rules[0].DelayMax)
	}
}

func TestParseChaosErrors(t *testing.T) {
	bad := []string{
		"from=2s,partition",               // missing peer
		"peer=n2,drop=1.5",                // probability out of range
		"peer=n2,drop=NaN",                // not a probability
		"peer=n2,delay=0.5",               // delay without @range
		"peer=n2,delay=1@500ms-200ms",     // max < min
		"peer=n2,banana=1",                // unknown field
		"peer=n2,from=soon,partition",     // unparseable duration
		"peer=n2,nonsense",                // bare field that is not "partition"
		"peer=n2,from=8s,to=2s,partition", // window closes before it opens
		"peer=n2,from=2s,to=2s,partition", // empty window
		"peer=n2,from=-3s,partition",      // negative start
		"peer=n2,to=-1s,partition",        // negative end, read as never expiring
	}
	for _, spec := range bad {
		if _, err := ParseChaos(spec); err == nil {
			t.Errorf("ParseChaos(%q) accepted a bad spec", spec)
		}
	}
	if rules, err := ParseChaos("  ;; "); err != nil || len(rules) != 0 {
		t.Errorf("empty spec: rules=%v err=%v", rules, err)
	}
}

// FuzzParseChaos: the -chaos parser never panics, and every rule it
// accepts names a peer, has every probability in [0, 1], a delay range
// whose maximum is at least its minimum, and a window that can fire:
// From ≥ 0, To ≥ 0, and To == 0 (never expires) or To > From.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"peer=n2,from=2s,to=8s,partition; peer=*,drop=0.25,delay=0.5@50ms-200ms,corrupt=0.1",
		"peer=*,drop=NaN",
		"peer=n2,delay=nan@1ms-2ms",
		"peer=n2,corrupt=+Inf",
		"peer=n2,delay=1@500ms-200ms",
		"peer=n2,from=8s,to=2s,partition",
		"peer=n2,to=-1s,partition",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseChaos(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			for _, p := range []float64{r.Drop, r.DelayRate, r.Corrupt} {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("ParseChaos(%q) accepted probability %v in %+v", spec, p, r)
				}
			}
			if r.Peer == "" || r.DelayMax < r.DelayMin {
				t.Fatalf("ParseChaos(%q) accepted %+v", spec, r)
			}
			if r.From < 0 || r.To < 0 || (r.To != 0 && r.To <= r.From) {
				t.Fatalf("ParseChaos(%q) accepted window [%v, %v)", spec, r.From, r.To)
			}
		}
	})
}
