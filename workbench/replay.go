package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/machine/jit"
	"mtsim/internal/serve"
)

// Layer replays: after the measured phase, the traced run feeds the
// sampled op inputs to each layer's public entry point in isolation
// and times the call from outside. Cheap layers (decode, app build,
// memo hit) are replayed per sampled op; layers that simulate are
// replayed once per distinct configuration of the sample.

// specReplay holds one configuration's replay timings (ns).
type specReplay struct {
	// Per sampled use of the spec: sums and count.
	uses                   int
	buildNS, memoNS, decNS int64
	// Once per spec.
	programNS, compileNS, runNS int64
	metricsNS, encodeNS         int64
	snapNS, journalNS           int64
	snapBytes                   int
	snapped                     bool
	instrs, cycles              int64
	routed                      bool
}

// handlerCall is the replayed cost of what the handler of an op with
// this spec does besides glue: decode, apps.New and the session call
// (a memo hit for warm workloads, the metrics run for cold ones).
func (r *specReplay) handlerCall(mode serveMode) float64 {
	call := float64(r.memoNS) / float64(r.uses)
	if mode == modeCold {
		call = float64(r.metricsNS)
	}
	return (float64(r.decNS)+float64(r.buildNS))/float64(r.uses) + call
}

type replay struct {
	specs     map[spec]*specReplay
	order     []spec // distinct specs in first-use order
	sampleOps int
	decodeNS  int64 // summed over sampled ops
	instrs    int64 // simulated work of the sampled ops
	cycles    int64
}

// requestBody is op i's POST /v2/jobs body as the workload sends it
// (the sweep's jobs as the sync runs a server would receive).
func requestBody(mode serveMode, specs []spec) ([]byte, error) {
	if mode == modeDurable {
		b := &serve.BatchRequest{}
		for _, s := range specs {
			b.Jobs = append(b.Jobs, serve.BatchJob{App: s.App, Config: s.request()})
		}
		return json.Marshal(&serve.V2JobRequest{Batch: b})
	}
	s := specs[0]
	return json.Marshal(&serve.V2JobRequest{Run: &serve.RunRequest{App: s.App, Config: s.request(), Metrics: mode == modeCold}})
}

// decode replays the handler's decode: json.Unmarshal into
// V2JobRequest, then ConfigRequest.ToMachine per entry.
func decode(body []byte) error {
	var req serve.V2JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if req.Run != nil {
		_, err := req.Run.Config.ToMachine()
		return err
	}
	for _, j := range req.Batch.Jobs {
		if _, err := j.Config.ToMachine(); err != nil {
			return err
		}
	}
	return nil
}

func runReplays(ctx context.Context, mode serveMode, l *opList, sample []int, memo *core.Session) (*replay, error) {
	rp := &replay{specs: make(map[spec]*specReplay)}
	for _, i := range sample {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		specs := l.opSpecs(i)
		body, err := requestBody(mode, specs)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := decode(body); err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		dec := time.Since(t0).Nanoseconds()
		rp.decodeNS += dec
		rp.sampleOps++
		for _, s := range specs {
			r := rp.specs[s]
			if r == nil {
				r = &specReplay{}
				rp.specs[s] = r
				rp.order = append(rp.order, s)
			}
			r.uses++
			r.decNS += dec / int64(len(specs))
			t0 = time.Now()
			a, err := apps.New(s.App, app.Quick)
			r.buildNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return nil, err
			}
			if memo != nil {
				cfg, err := s.machine()
				if err != nil {
					return nil, err
				}
				t0 = time.Now()
				_, err = memo.RunContext(ctx, a, cfg)
				if err == nil {
					_, err = memo.BaselineContext(ctx, a)
				}
				r.memoNS += time.Since(t0).Nanoseconds()
				if err != nil {
					return nil, err
				}
			}
		}
	}

	dir, err := os.MkdirTemp("", "workbench-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, _, err := serve.OpenJournal(filepath.Join(dir, "replay.wal"))
	if err != nil {
		return nil, err
	}
	for _, s := range rp.order {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, j.Close())
		}
		if err := replaySpec(ctx, s, rp.specs[s], j); err != nil {
			return nil, errors.Join(fmt.Errorf("replay %+v: %w", s, err), j.Close())
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	for _, i := range sample {
		for _, s := range l.opSpecs(i) {
			rp.instrs += rp.specs[s].instrs
			rp.cycles += rp.specs[s].cycles
		}
	}
	return rp, nil
}

// replaySpec times the simulating layers once for s: the program build
// (with the grouping pass), jit.Compile, a run on a fresh session, the
// same run collecting metrics and their encoding, and a snapshot taken
// at the workload's checkpoint interval (or mid-run, for runs shorter
// than twice that) appended to the benchmark's own journal.
func replaySpec(ctx context.Context, s spec, r *specReplay, j *serve.Journal) error {
	a, err := apps.New(s.App, app.Quick)
	if err != nil {
		return err
	}
	cfg, err := s.machine()
	if err != nil {
		return err
	}
	r.routed = cfg.Topology.Enabled()
	t0 := time.Now()
	p, err := a.ProgramFor(cfg.Model)
	r.programNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	t0 = time.Now()
	jit.Compile(p)
	r.compileNS = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	res, err := core.NewSession().RunContext(ctx, a, cfg)
	r.runNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	r.instrs, r.cycles = res.Instrs, res.Cycles

	msess := core.NewSession()
	msess.CollectMetrics = true
	t0 = time.Now()
	mres, err := msess.RunContext(ctx, a, cfg)
	r.metricsNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = json.Marshal(mres.Metrics)
	r.encodeNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}

	mc, err := machine.NewMachine(cfg, p, a.Init)
	if err != nil {
		return err
	}
	if _, err := mc.RunUntil(ctx, min(checkpointEvery, res.Cycles/2)); err != nil {
		return err
	}
	if mc.Done() {
		return nil // too short to pause: no checkpoint to take
	}
	t0 = time.Now()
	snap, err := mc.Snapshot()
	r.snapNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	r.snapBytes, r.snapped = len(snap), true
	t0 = time.Now()
	err = j.AppendCkpt("replay", 0, mc.Cycle(), snap)
	r.journalNS = time.Since(t0).Nanoseconds()
	return err
}

// layerMetrics turns the replays into the per-layer metrics, naming
// those the sample was too small to report.
func (rp *replay) layerMetrics() (map[string]float64, []string) {
	var build, uses, program, compile, run, metricsRun, encode, snapNS, snapBytes, journal, snaps int64
	var routedNS, routedInstrs, constNS, constInstrs, instrs, cycles int64
	var runs []float64
	for _, s := range rp.order {
		r := rp.specs[s]
		build += r.buildNS
		uses += int64(r.uses)
		program += r.programNS
		compile += r.compileNS
		run += r.runNS
		runs = append(runs, float64(r.runNS)/1e3)
		metricsRun += r.metricsNS
		encode += r.encodeNS
		instrs += r.instrs
		cycles += r.cycles
		if r.snapped {
			snaps++
			snapNS += r.snapNS
			snapBytes += int64(r.snapBytes)
			journal += r.journalNS
		}
		if r.routed {
			routedNS += r.runNS
			routedInstrs += r.instrs
		} else {
			constNS += r.runNS
			constInstrs += r.instrs
		}
	}
	n := float64(len(rp.order))
	sort.Float64s(runs)
	var missing []string
	runP50, ok := percentile(runs, 0.5)
	if !ok {
		missing = append(missing, "core.run_us_p50")
	}
	return map[string]float64{
		"serve.decode_us":               ratio(float64(rp.decodeNS)/1e3, float64(rp.sampleOps)),
		"apps.build_us":                 ratio(float64(build)/1e3, float64(uses)),
		"app.program_us":                float64(program) / 1e3 / n,
		"jit.compile_us":                float64(compile) / 1e3 / n,
		"jit.compile_share":             ratio(float64(compile), float64(run)),
		"core.run_us_p50":               runP50,
		"sim.instrs":                    float64(rp.instrs),
		"sim.cycles":                    float64(rp.cycles),
		"machine.ns_per_sim_instr":      ratio(float64(run), float64(instrs)),
		"machine.ns_per_sim_cycle":      ratio(float64(run), float64(cycles)),
		"net.routed_ns_per_sim_instr":   ratio(float64(routedNS), float64(routedInstrs)),
		"net.constant_ns_per_sim_instr": ratio(float64(constNS), float64(constInstrs)),
		"metrics.collect_slowdown":      ratio(float64(metricsRun), float64(run)),
		"metrics.encode_us":             float64(encode) / 1e3 / n,
		"snap.encode_us":                ratio(float64(snapNS)/1e3, float64(snaps)),
		"snap.kb":                       ratio(float64(snapBytes)/1024, float64(snaps)),
		"journal.append_ms":             ratio(float64(journal)/1e6, float64(snaps)),
		"jit.compile_total_ms":          float64(compile) / 1e6,
		"core.run_total_ms":             float64(run) / 1e6,
	}, missing
}

// ratio is a/b, 0 when b is 0 (a layer the sample never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
