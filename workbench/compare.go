package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run as -out appends it: the result line plus the run's
// settings and the traced run's span split.
type record struct {
	Schema     int              `json:"schema"`
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Trace      bool             `json:"trace"`
	Seconds    float64          `json:"seconds"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
	Extra      map[string]value `json:"extra,omitempty"`
}

// recordSchema identifies the record layout.
const recordSchema = 1

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: record schema %d, this binary reads %d", path, n, r.Schema, recordSchema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain implements `workbench compare BASE.jsonl CURRENT.jsonl`:
// per workload, each end-to-end metric's median and quartiles over the
// repeated untraced runs of both files with a verdict against its
// bound, then the traced runs' per-layer medians side by side. It exits
// 1 when any metric regressed past its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("workbench compare", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: workbench compare BASE.jsonl CURRENT.jsonl") }
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "workbench compare:", err)
		return 2
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "workbench compare:", err)
		return 2
	}
	if compare(os.Stdout, base, cur) > 0 {
		return 1
	}
	return 0
}

// compare prints the comparison and returns how many metrics regressed.
func compare(w io.Writer, base, cur []record) int {
	regressed := 0
	for _, name := range recordWorkloads(base, cur) {
		fmt.Fprintf(w, "== %s\n", name)
		fmt.Fprintf(w, "%-32s %30s %30s %9s %6s  %s\n", "metric", "base median [q1, q3]", "current median [q1, q3]", "change", "bound", "verdict")
		for _, d := range endToEnd {
			bv, cv := metricValues(base, name, false, d.Name), metricValues(cur, name, false, d.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v := verdict(d, bv, cv)
			if v == "REGRESSED" {
				regressed++
			}
			fmt.Fprintf(w, "%-32s %30s %30s %+8.1f%% %5.0f%%  %s\n", d.Name, spread(bv), spread(cv),
				100*(median(cv)/median(bv)-1), 100*d.Bound, v)
		}
		printed := false
		for _, defs := range [][]metricDef{perLayer, spanLayer} {
			for _, d := range defs {
				bv, cv := metricValues(base, name, true, d.Name), metricValues(cur, name, true, d.Name)
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				if !printed {
					fmt.Fprintf(w, "%-32s %14s %14s %9s  %s\n", "per-layer", "base", "current", "cur/base", "unit")
					printed = true
				}
				fmt.Fprintf(w, "%-32s %14.6g %14.6g %9.3f  %s\n", d.Name, median(bv), median(cv),
					ratio(median(cv), median(bv)), d.Unit)
			}
		}
	}
	return regressed
}

// verdict judges current against base: REGRESSED when the median got
// worse by more than the bound; unresolved when the base's own spread
// is wider than the bound, unless every current run beats every base
// run; ok otherwise.
func verdict(d metricDef, bv, cv []float64) string {
	bm, cm := median(bv), median(cv)
	q1, q3 := quartiles(bv)
	worse := (cm - bm) / bm
	if d.Better == "higher" {
		worse = -worse
	}
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	allBetter := true
	for _, c := range cv {
		for _, b := range bv {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case allBetter:
		return "ok"
	case (q3-q1)/bm > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "REGRESSED"
	}
	return "ok"
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// metricValues collects one metric over the runs of a workload, from
// the result line's metrics or the traced run's extras.
func metricValues(rs []record, workload string, trace bool, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		} else if v, ok := r.Extra[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// recordWorkloads lists the workloads present in either file, in the
// benchmark's order, unknown names last.
func recordWorkloads(a, b []record) []string {
	seen := make(map[string]bool)
	for _, r := range append(append([]record(nil), a...), b...) {
		seen[r.Workload] = true
	}
	var out []string
	for _, w := range workloads {
		if seen[w.name] {
			out = append(out, w.name)
			delete(seen, w.name)
		}
	}
	var rest []string
	for name := range seen {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(out, rest...)
}
