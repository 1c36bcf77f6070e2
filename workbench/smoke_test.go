package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at 1% of its op count,
// untraced and traced, with its journals under a test temp dir: the
// harness must set up, drive, check and tear down each stack, report
// every metric its samples allow, and leave no journal behind.
func TestSmokeEveryWorkload(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	// Percentiles need 20 or 100 samples, which a smoke run may not
	// reach; nothing else may be missing.
	percentiles := map[string]bool{"latency_p50_ms": true, "latency_p90_ms": true, "core.run_us_p50": true}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 1, seconds: 0.3, trace: trace, traceDir: tmp,
				setups: 1, scale: 0.01}
			out, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, out.Correct, out.Attempted, out.Failed)
			}
			for _, m := range out.missing {
				if !percentiles[m] {
					t.Errorf("%s trace=%v: %s not reported", w.name, trace, m)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(tmp, "workbench-trace-"+w.name+"-1.jsonl")); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
	left, err := filepath.Glob(filepath.Join(tmp, "workbench-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range left {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			t.Errorf("temp dir %s left behind", p)
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps the repository's
// BENCHMARK.json and this program's metric and workload tables in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, the program %q: %q",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json: %+v\n prog: %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json: %+v\n prog: %+v", bj.PerLayer, perLayer)
	}
}
