package exp_test

import (
	"io"
	"strings"
	"testing"

	"mtsim/internal/app"
	"mtsim/internal/exp"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := exp.All()
	wantIDs := []string{
		"figure1", "table1", "figure2", "table2", "figure3", "table3",
		"figure4", "table4", "table5", "table6", "table7", "table8",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("have %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, e := range all {
		if e.ID != wantIDs[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, wantIDs[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
}

func TestAblationsRegistered(t *testing.T) {
	abls := exp.Ablations()
	if len(abls) != 9 {
		t.Fatalf("ablations = %d, want 9", len(abls))
	}
	for _, e := range abls {
		if e.ID == "" || e.Run == nil || e.Title == "" {
			t.Errorf("incomplete ablation %+v", e)
		}
		got, err := exp.ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s): %v, %v", e.ID, got, err)
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are not short")
	}
	var sb strings.Builder
	// A small search cap keeps the latency sweep fast for the smoke test.
	o := exp.New(&sb, exp.WithScale(app.Quick), exp.WithMaxMT(8))
	for _, id := range []string{"ablation-priority", "ablation-jitter", "ablation-switchcost", "ablation-linesize", "ablation-faults"} {
		sb.Reset()
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(sb.String(), "Ablation:") {
			t.Errorf("%s produced no table", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := exp.ByID("table5")
	if err != nil || e.ID != "table5" {
		t.Fatalf("ByID(table5) = %v, %v", e, err)
	}
	if _, err := exp.ByID("table99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestQuickExperimentsRun regenerates the fast artifacts end to end and
// checks key content markers (the slow MT-search tables are covered by
// the benchmarks and the experiments binary).
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration is not short")
	}
	cases := map[string][]string{
		"figure1": {"switch-on-load", "conditional-switch", "grouped"},
		"table1":  {"sieve", "mp3d", "blocked matrix multiply"},
		"table2":  {"application", "mean"},
		"figure4": {"flw.s", "switch", "five-load"},
		"table4":  {"grouping"},
		"table7":  {"hit-rate", "traffic ratio"},
	}
	var sb strings.Builder
	o := exp.New(&sb, exp.WithScale(app.Quick))
	for id, markers := range cases {
		sb.Reset()
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := sb.String()
		for _, m := range markers {
			if !strings.Contains(out, m) {
				t.Errorf("%s output missing %q:\n%s", id, m, out)
			}
		}
	}
}

func TestWriteReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report regeneration is not short")
	}
	var sb strings.Builder
	// A small search cap keeps the searches small for the smoke test.
	o := exp.New(&sb, exp.WithScale(app.Quick), exp.WithMaxMT(6))
	if err := exp.WriteReport(o, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, marker := range []string{
		"# EXPERIMENTS", "## Paper artifacts", "## Ablations",
		"### table5", "### figure2", "### ablation-priority",
		"verified against a host-computed reference",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("report missing %q", marker)
		}
	}
	// Every experiment needs a section in the report.
	for _, set := range [][]*exp.Experiment{exp.All(), exp.Ablations()} {
		for _, e := range set {
			if !strings.Contains(out, "### "+e.ID) {
				t.Errorf("report missing section for %s", e.ID)
			}
		}
	}
}

func TestOptionsAppLookup(t *testing.T) {
	o := exp.New(io.Discard, exp.WithScale(app.Quick))
	if _, err := o.App("sor"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.App("nope"); err == nil {
		t.Error("unknown app accepted")
	}
	if got := len(o.Apps()); got != 7 {
		t.Errorf("app set size = %d", got)
	}
}
