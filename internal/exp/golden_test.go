package exp_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mtsim/internal/exp"
	"mtsim/internal/metrics"
)

// TestGoldenArtifacts regenerates the deterministic golden set and
// diffs it against the committed files; -short leaves out the renders
// of the experiments beyond figure1, figure4 and ablation-topology. A
// legitimate behavior change (kernel, optimizer, accounting, schema) is
// re-pinned with:
//
//	go run ./cmd/gengolden
func TestGoldenArtifacts(t *testing.T) {
	got, err := exp.GoldenSet(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	if !testing.Short() {
		// Every experiment is pinned, and no committed golden outlives
		// the experiment it pinned.
		for _, e := range append(exp.All(), exp.Ablations()...) {
			if got[e.ID+".golden.txt"] == nil {
				t.Errorf("experiment %s has no golden render", e.ID)
			}
		}
		committed, err := filepath.Glob(filepath.Join("testdata", "*.golden.*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range committed {
			if got[filepath.Base(path)] == nil {
				t.Errorf("%s is no longer generated; delete it", path)
			}
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Errorf("%s: %v (regenerate with `go run ./cmd/gengolden`)", name, err)
			continue
		}
		if string(got[name]) != string(want) {
			t.Errorf("%s drifted from the committed golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with `go run ./cmd/gengolden`.",
				name, got[name], want)
		}
	}
}

// TestGoldenMetricsSchemaShape parses the committed metrics goldens and
// asserts the schema contract independently of exact values: version
// tag, required keys, and the exactness invariant, so a regenerated
// golden can never silently pin a malformed record.
func TestGoldenMetricsSchemaShape(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "run_metrics.golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rm metrics.RunMetrics
		if err := json.Unmarshal(data, &rm); err != nil {
			t.Fatal(err)
		}
		if rm.Schema != metrics.SchemaVersion {
			t.Errorf("schema = %d, want %d", rm.Schema, metrics.SchemaVersion)
		}
		if rm.Program == "" || rm.Model == "" || rm.Cycles <= 0 {
			t.Errorf("missing identity fields: %+v", rm)
		}
		if want := rm.Cycles * int64(rm.NumProcs); rm.States.Total() != want {
			t.Errorf("states sum to %d, want %d", rm.States.Total(), want)
		}
		// The golden run is chosen to populate every state.
		s := rm.States
		for _, probe := range []struct {
			name string
			v    int64
		}{
			{"running", s.Running}, {"context_switching", s.Switching},
			{"stalled_on_memory", s.StalledMem}, {"cache_hit_continue", s.CacheHit},
			{"idle", s.Idle}, {"fault_recovery", s.FaultRecovery},
		} {
			if probe.v <= 0 {
				t.Errorf("golden run leaves state %q empty; choose a config that exercises it", probe.name)
			}
		}
		if len(rm.Procs) != rm.NumProcs {
			t.Errorf("per_proc has %d entries, want %d", len(rm.Procs), rm.NumProcs)
		}
	})
	t.Run("batch", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "batch_metrics.golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		var bm metrics.BatchMetrics
		if err := json.Unmarshal(data, &bm); err != nil {
			t.Fatal(err)
		}
		if bm.Schema != metrics.SchemaVersion {
			t.Errorf("schema = %d, want %d", bm.Schema, metrics.SchemaVersion)
		}
		if bm.Runs <= 0 || bm.Engine.Sims <= 0 {
			t.Errorf("empty aggregate: %+v", bm)
		}
		if bm.States.Total() <= 0 {
			t.Error("aggregate states are empty")
		}
	})
}
