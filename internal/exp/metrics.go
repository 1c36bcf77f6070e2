package exp

import (
	"fmt"
	"io"
	"os"

	"mtsim/internal/metrics"
)

// This file surfaces the cycle-accounting observability layer
// (internal/metrics) at the experiment-engine level: a rendered
// aggregate summary for reports and the stable-schema JSON emitted by
// the -metrics flags of cmd/mtsim and cmd/experiments.

// SessionMetrics snapshots the session's aggregated cycle accounting.
// It is non-empty only when Options.Sess.CollectMetrics was set before
// the experiments ran.
func (o *Options) SessionMetrics() *metrics.BatchMetrics {
	return o.Sess.Metrics()
}

// WriteMetricsSummary renders the aggregate state breakdown and engine
// counters in the report's ASCII style.
func WriteMetricsSummary(w io.Writer, bm *metrics.BatchMetrics) {
	fmt.Fprintf(w, "cycle accounting over %d runs (schema v%d)\n", bm.Runs, bm.Schema)
	total := bm.States.Total()
	fmt.Fprintf(w, "  states: %s\n", bm.States.Breakdown(total))
	fmt.Fprintf(w, "  counters: instrs=%d switches(taken=%d skipped=%d forced=%d) shared-loads=%d messages=%d\n",
		bm.Counters.Instrs, bm.Counters.SwitchesTaken, bm.Counters.SwitchesSkipped,
		bm.Counters.SwitchesForced, bm.Counters.NetRoundTrips, bm.Counters.NetMessages)
	if bm.Counters.FaultRetries > 0 || bm.Counters.FaultTimeouts > 0 {
		fmt.Fprintf(w, "  faults: retries=%d timeouts=%d\n",
			bm.Counters.FaultRetries, bm.Counters.FaultTimeouts)
	}
	fmt.Fprintf(w, "  engine: sims=%d memo-hits=%d\n", bm.Engine.Sims, bm.Engine.MemoHits)
}

// WriteMetricsFile writes the aggregate as stable-schema JSON to path
// ("-" means stdout), implementing the cmd-level -metrics flag.
func WriteMetricsFile(path string, bm *metrics.BatchMetrics) error {
	if path == "-" {
		return metrics.WriteJSON(os.Stdout, bm)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("exp: metrics output: %w", err)
	}
	if err := metrics.WriteJSON(f, bm); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
