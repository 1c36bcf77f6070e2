package machine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"mtsim/internal/isa"
	"mtsim/internal/net"
	"mtsim/internal/prog"
	"mtsim/internal/snap"
)

// This file is the checkpoint/restore layer: a pausable Machine handle
// over the simulator plus a versioned binary encoding of its complete
// mutable state. The contract is byte-identity — a run paused at any
// cycle, snapshotted, restored (even in another process) and resumed
// produces a Result, including Result.Metrics, byte-identical to an
// uninterrupted run — which is what makes crash-recovered service runs
// indistinguishable from clean ones.
//
// What a snapshot captures: the event clock and wake vector, every
// thread context (registers, scoreboard, scheduler state, local
// memory, grouping window), per-processor caches and counters, the
// coherence directory and dirty-owner map, shared memory (as the runs
// of words that differ from the program's initial Image), the partial
// Result counters, and the mutable state of the congestion, fault
// (rng root + sequence counter — Fork makes substreams a pure function
// of those) and metrics runtimes. What it deliberately does not
// capture: the program and its initial image (re-supplied at restore
// and verified by hash), the configuration's derived scratch (rebuilt),
// tracers (not serializable; NewMachine does not accept one), and
// context binding (a resume may run under a different context).

// SnapshotVersion is the current snapshot format version. Format 5
// drops what format 4 encoded but timing never read: each link's
// message counters and in-flight departure times, the nine fault fields
// of a removed delay distribution and of the recovery protocol (its
// constants now follow from Latency), and the fault plan's hot-spot
// count. A format-4 snapshot restores only if those fields hold what
// its configuration implies (legacyFaults).
const SnapshotVersion = 5

// oldestSnapshotVersion is the oldest format RestoreMachine reads. Only
// a run in flight across an upgrade holds a checkpoint, so one format
// back covers a rolling upgrade. Any other format is
// ErrSnapshotMismatch: the run is deterministic, so restarting it from
// cycle 0 yields the same bytes.
const oldestSnapshotVersion = SnapshotVersion - 1

// snapMagic brands machine snapshots.
const snapMagic = "MTSN"

// ErrSnapshotMismatch is returned when a snapshot is in a format this
// build does not read, is restored against a program, initial image (or
// implied configuration) it was not taken from, or holds state that no
// encoder could have written.
var ErrSnapshotMismatch = errors.New("machine: snapshot does not match")

// Machine is a pausable simulation: Run/RunUntil drive it, Snapshot
// captures it between drives, RestoreMachine rebuilds it. Not safe for
// concurrent use.
type Machine struct {
	sim    *m
	base   *Image
	done   bool
	failed error
	// snapLen is the size of the last snapshot, which presizes the next.
	snapLen int
}

// NewMachine validates cfg and p and builds a machine paused at cycle
// 0, its shared memory a copy of img (the serial setup the paper
// excludes from measurement; nil for all zero). Its snapshots encode
// shared memory against img, so restoring them takes the same image.
// Tracers are deliberately unsupported: they cannot be captured by a
// snapshot.
func NewMachine(cfg Config, p *prog.Program, img *Image) (*Machine, error) {
	if err := img.check(p); err != nil {
		return nil, err
	}
	sim, err := newSim(cfg, p, img.Fill, nil)
	if err != nil {
		return nil, err
	}
	return &Machine{sim: sim, base: img}, nil
}

// Config returns the effective (defaulted) configuration.
func (mc *Machine) Config() Config { return mc.sim.cfg }

// Cycle returns the event clock: the cycle the paused machine will
// execute next, or the last clock value of a completed run.
func (mc *Machine) Cycle() int64 { return mc.sim.now }

// Done reports whether the program has run to completion.
func (mc *Machine) Done() bool { return mc.done }

// Err returns the error that killed the machine, if any. A failed
// machine cannot be driven further or snapshotted.
func (mc *Machine) Err() error { return mc.failed }

// Result returns the completed run's result, or nil while the machine
// is still runnable.
func (mc *Machine) Result() *Result {
	if !mc.done {
		return nil
	}
	return mc.sim.res
}

// SharedMem exposes the simulated shared memory, for the application's
// host-side Check after completion.
func (mc *Machine) SharedMem() *Shared { return mc.sim.shared }

// RunUntil drives the simulation until the program completes or the
// event clock reaches stop, whichever comes first — the machine pauses
// *before* executing any event at a cycle >= stop, so the state it
// exposes is exactly the state an uninterrupted run passes through.
// Driving with stop <= Cycle() makes no progress. The context is
// rebound on every call; cancellation is noticed at the loop's
// amortized poll (CancelCheckInterval) and kills the machine with a
// sticky error, as it would a one-shot run — a canceled machine's
// state is mid-flight and can be neither driven further nor
// snapshotted.
func (mc *Machine) RunUntil(ctx context.Context, stop int64) (done bool, err error) {
	if mc.failed != nil {
		return false, mc.failed
	}
	if mc.done {
		return true, nil
	}
	mc.sim.bindContext(ctx)
	mc.sim.until = stop
	done, err = mc.sim.run()
	mc.sim.until = never
	mc.sim.bindContext(context.Background())
	if err != nil {
		mc.failed = err
		return false, err
	}
	mc.done = done
	return done, nil
}

// Run drives the simulation to completion and returns its result.
func (mc *Machine) Run(ctx context.Context) (*Result, error) {
	done, err := mc.RunUntil(ctx, never)
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("machine: internal: unbounded run paused") // unreachable
	}
	return mc.sim.res, nil
}

// Snapshot encodes the machine's complete mutable state. Only a paused,
// healthy machine can be snapshotted: a completed run's artifact is its
// Result, and a failed machine has nothing consistent to save.
func (mc *Machine) Snapshot() ([]byte, error) {
	if mc.failed != nil {
		return nil, fmt.Errorf("machine: cannot snapshot failed machine: %w", mc.failed)
	}
	if mc.done {
		return nil, errors.New("machine: cannot snapshot a completed run (use Result)")
	}
	size := mc.snapLen + mc.snapLen/8
	if size == 0 {
		size = mc.sim.snapshotSizeHint()
	}
	e := snap.NewEncoder(snapMagic, SnapshotVersion, size)
	mc.sim.encodeState(e, mc.base)
	b := e.Seal()
	mc.snapLen = len(b)
	return b, nil
}

// snapshotSizeHint bounds a first snapshot's size from the machine's
// shape: everything but the shared-memory delta, which is counted as
// half of shared memory.
func (sim *m) snapshotSizeHint() int {
	perThread := 8*(2*isa.NumIntRegs+2*isa.NumFPRegs+16) + 8*int(sim.prg.Local.Size())
	perProc := 128 + 18*sim.cfg.Cache.Lines + sim.cfg.Threads*perThread
	return 4096 + 4*len(sim.sh) + sim.cfg.Procs*perProc
}

// RestoreMachine rebuilds a paused machine from a snapshot in format
// oldestSnapshotVersion to SnapshotVersion. The program must be the one
// the snapshot was taken from (verified by a content hash), and so must
// img, the initial image its shared memory is encoded against. The
// image is not re-applied beyond that: shared memory comes from the
// snapshot.
func RestoreMachine(data []byte, p *prog.Program, img *Image) (*Machine, error) {
	version, payload, err := snap.Open(snapMagic, data)
	if err != nil {
		return nil, fmt.Errorf("machine: restore: %w", err)
	}
	if version < oldestSnapshotVersion || version > SnapshotVersion {
		return nil, fmt.Errorf("machine: restore: %w: format %d, this build reads %d..%d",
			ErrSnapshotMismatch, version, oldestSnapshotVersion, SnapshotVersion)
	}
	if err := img.check(p); err != nil {
		return nil, fmt.Errorf("machine: restore: %w: %v", ErrSnapshotMismatch, err)
	}
	d := snap.NewDecoder(payload)
	sim, err := decodeState(d, p, img, version)
	if err != nil {
		return nil, fmt.Errorf("machine: restore: %w", err)
	}
	return &Machine{sim: sim, base: img, snapLen: len(data)}, nil
}

// programHash fingerprints the executable content a snapshot depends
// on: the instruction stream and the memory layout sizes. FNV-1a over
// every field that affects execution.
func programHash(p *prog.Program) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte(p.Name))
	w64(uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		w64(uint64(in.Op))
		spin := uint64(0)
		if in.Spin {
			spin = 1
		}
		w64(uint64(in.Rd) | uint64(in.Rs)<<8 | uint64(in.Rt)<<16 | spin<<24)
		w64(uint64(in.Imm))
		w64(uint64(int64(in.Target)))
	}
	w64(uint64(p.Shared.Size()))
	w64(uint64(p.Local.Size()))
	return h.Sum64()
}

// encodeState writes the simulation's mutable state, shared memory as
// a delta against base (payload only; the caller frames it).
func (sim *m) encodeState(e *snap.Encoder, base *Image) {
	e.String(sim.prg.Name)
	e.U64(programHash(sim.prg))
	e.U64(base.Hash())
	encodeConfig(e, sim.cfg)

	e.I64(sim.now)
	e.I64(sim.nowApprox)
	e.Int(sim.live)
	// A fresh machine has not allocated its wake vector yet; encode the
	// implied all-zeros vector so restore is uniform.
	if sim.wakes == nil {
		e.I64s(make([]int64, len(sim.procs)))
	} else {
		e.I64s(sim.wakes)
	}
	encodeShared(e, sim.sh, base.cells())

	for pi := range sim.procs {
		pr := &sim.procs[pi]
		e.Int(pr.cur)
		e.Int(pr.live)
		e.Int(pr.resume)
		e.I64(int64(pr.critLive))
		e.I64(pr.busy)
		e.I64(pr.spinBusy)
		e.I64(pr.switchOverhead)
		encodeOptional(e, pr.cache != nil, pr.cache.EncodeState)
		for ti := range pr.threads {
			encodeThread(e, &pr.threads[ti])
		}
	}
	encodeOptional(e, sim.dir != nil, sim.encodeCoherence)
	encodeResult(e, sim.res)
	encodeOptional(e, sim.congestion != nil, sim.congestion.EncodeState)
	encodeOptional(e, sim.faults != nil, sim.faults.EncodeState)
	encodeOptional(e, sim.mx != nil, sim.mx.EncodeState)
	encodeOptional(e, sim.topo != nil, sim.topo.EncodeState)
}

// encodeOptional writes the section of a runtime only some
// configurations have: whether the machine has it, then, if it does,
// the runtime's own encoding. encode is called only when live, so it
// may be the method value of a nil runtime.
func encodeOptional(e *snap.Encoder, live bool, encode func(*snap.Encoder)) {
	e.Bool(live)
	if live {
		encode(e)
	}
}

// decodeOptional reads back a section encodeOptional wrote. The
// snapshot must carry it exactly when the configuration gives the
// machine the runtime. decode reads it into the instance newSim built;
// a state it rejects, unless the payload itself is malformed, is one no
// encoder could have written, and so a mismatch.
func decodeOptional(d *snap.Decoder, live bool, what string, decode func(*snap.Decoder) error) error {
	has := d.Bool()
	switch {
	case d.Err() != nil:
		return d.Err()
	case has && !live:
		return fmt.Errorf("%w: snapshot has %s state but the configuration disables it", ErrSnapshotMismatch, what)
	case !has && live:
		return fmt.Errorf("%w: configuration enables %s but the snapshot lacks its state", ErrSnapshotMismatch, what)
	case !has:
		return nil
	}
	if err := decode(d); err != nil {
		if d.Err() != nil {
			return d.Err()
		}
		return fmt.Errorf("%w: %w", ErrSnapshotMismatch, err)
	}
	return nil
}

// encodeCoherence writes the coherence directory, then the dirty owners
// sorted by line (map iteration order must not leak into the bytes).
func (sim *m) encodeCoherence(e *snap.Encoder) {
	sim.dir.EncodeState(e)
	lines := make([]int64, 0, len(sim.dirtyOwner))
	for line := range sim.dirtyOwner {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	e.U32(uint32(len(lines)))
	for _, line := range lines {
		e.I64(line)
		e.I64(int64(sim.dirtyOwner[line]))
	}
}

// decodeCoherence reads what encodeCoherence wrote, then checks it
// against the restored caches (checkRestoredCoherence).
func (sim *m) decodeCoherence(d *snap.Decoder) error {
	if err := sim.dir.DecodeState(d, len(sim.procs)); err != nil {
		return err
	}
	n := d.Count(8 + 8)
	var prev int64
	for i := 0; i < n; i++ {
		line, owner := d.I64(), d.I64()
		switch {
		case d.Err() != nil:
			return d.Err()
		case owner < 0 || owner >= int64(len(sim.procs)):
			return fmt.Errorf("dirty owner %d out of range", owner)
		case i > 0 && line <= prev:
			return fmt.Errorf("dirty-owner lines out of order")
		}
		sim.dirtyOwner[line] = int32(owner)
		prev = line
	}
	if err := d.Err(); err != nil {
		return err
	}
	return sim.checkRestoredCoherence()
}

// checkRestoredCoherence holds every restored cached copy, directory
// line and dirty owner to the invariants checkCoherence enforces line
// by line during a run: no cache holds a line dirty without owning it,
// every directory sharer holds the line, and a dirty owner holds its
// line dirty and is its only sharer. It also checks what installLine
// and every invalidation maintain: each cached copy is listed in the
// directory once. checkCoherence probes every processor's cache for
// each line it checks; this looks the copies up in one map instead, so
// restore stays linear in the snapshot's size whatever the processor
// count and associativity.
func (sim *m) checkRestoredCoherence() error {
	type copyOf struct {
		line int64
		proc int32
	}
	dirty := make(map[copyOf]bool) // every cached copy: whether it is dirty
	copies, sharers := 0, 0
	for pi := range sim.procs {
		pr := &sim.procs[pi]
		err := pr.cache.EachLine(func(line int64, d bool) error {
			copies++
			dirty[copyOf{line, pr.id}] = d
			if owner, ok := sim.dirtyOwner[line]; d && (!ok || owner != pr.id) {
				return fmt.Errorf("coherence: proc %d holds line %d dirty without ownership", pr.id, line)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	owned := 0
	for _, line := range sim.dir.Lines(nil) {
		sim.shrBuf = sim.dir.Sharers(line, sim.shrBuf[:0])
		sharers += len(sim.shrBuf)
		for _, p := range sim.shrBuf {
			if _, ok := dirty[copyOf{line, p}]; !ok {
				return fmt.Errorf("coherence: directory lists proc %d for line %d but its cache lacks it", p, line)
			}
		}
		owner, ok := sim.dirtyOwner[line]
		if !ok {
			continue
		}
		owned++
		if !dirty[copyOf{line, owner}] {
			return fmt.Errorf("coherence: line %d owner %d holds it clean", line, owner)
		}
		if len(sim.shrBuf) != 1 || sim.shrBuf[0] != owner {
			return fmt.Errorf("coherence: dirty line %d has sharers %v (owner %d)", line, sim.shrBuf, owner)
		}
	}
	if owned != len(sim.dirtyOwner) {
		return fmt.Errorf("coherence: %d dirty owners hold lines the directory does not list", len(sim.dirtyOwner)-owned)
	}
	// Every sharer has its own copy, so equal counts leave no copy
	// unlisted and none held twice.
	if copies != sharers {
		return fmt.Errorf("coherence: caches hold %d copies but the directory lists %d", copies, sharers)
	}
	return nil
}

// encodeShared writes shared memory as its delta against base (nil:
// all zero): the run count, then each run's start and its words (an
// I64s, whose length prefix is the run's length). A run is a maximal
// stretch of words that differ from base, so runs come sorted, at
// least one equal word apart, and each state has exactly one encoding.
func encodeShared(e *snap.Encoder, sh, base []int64) {
	runs := 0
	for start, end := nextRun(sh, base, 0); start < end; start, end = nextRun(sh, base, end) {
		runs++
	}
	e.U32(uint32(runs))
	for start, end := nextRun(sh, base, 0); start < end; start, end = nextRun(sh, base, end) {
		e.U32(uint32(start))
		e.I64s(sh[start:end])
	}
}

// nextRun returns the first maximal run [start, end) at or after i of
// words of sh that differ from base; start == end when none is left.
func nextRun(sh, base []int64, i int) (start, end int) {
	for i < len(sh) && sh[i] == baseWord(base, i) {
		i++
	}
	start = i
	for i < len(sh) && sh[i] != baseWord(base, i) {
		i++
	}
	return start, i
}

func baseWord(base []int64, i int) int64 {
	if base == nil {
		return 0
	}
	return base[i]
}

// decodeShared rebuilds shared memory from base and the delta runs
// encodeShared wrote, rejecting any encoding it would not have written.
func decodeShared(d *snap.Decoder, sh, base []int64) error {
	copy(sh, base)
	runs := d.Count(4 + 4 + 8)
	next := 0 // the first index the next run may start at
	for r := 0; r < runs && d.Err() == nil; r++ {
		start := int(d.U32())
		n := d.Count(8)
		if d.Err() != nil {
			break
		}
		if n == 0 || start < next || start > len(sh)-n {
			return fmt.Errorf("%w: shared-memory run [%d,+%d) out of order or range for %d cells", ErrSnapshotMismatch, start, n, len(sh))
		}
		for i := start; i < start+n; i++ {
			v := d.I64()
			if v == baseWord(base, i) {
				return fmt.Errorf("%w: shared-memory run [%d,+%d) holds the image's word at %d", ErrSnapshotMismatch, start, n, i)
			}
			sh[i] = v
		}
		next = start + n + 1
	}
	return d.Err()
}

// fitsPayload reports whether rem payload bytes can hold the encoded
// state of a machine under the effective cfg running p, in format
// version. A snapshot's configuration sizes the machine restore builds
// before reading that state, so this check is what keeps a hostile
// snapshot from making restore allocate far beyond the snapshot's own
// size. Every bound below is a lower bound on what encodeState writes.
func fitsPayload(cfg Config, p *prog.Program, rem int, version uint32) bool {
	r := int64(rem)
	procs, threads := int64(cfg.Procs), int64(cfg.Threads)
	perThread := int64(8*(2*isa.NumIntRegs+2*isa.NumFPRegs+6)+6) + 8*p.Local.Size()
	perProc := int64(8 + 7*8 + 1) // wake, counters, cache flag
	if cfg.Model.UsesCache() {
		lines := int64(cfg.Cache.Lines)
		if lines > r/18 {
			return false
		}
		perProc += 4*4 + 18*lines + 5*8
	}
	if procs > r/perProc || threads > r/procs || procs*threads > r/perThread {
		return false
	}
	need := procs*perProc + procs*threads*perThread
	if cfg.Topology.Enabled() {
		// Every node has at least one outgoing link: its busy-until
		// cycle, and in format 4 also two counters and the length of
		// its in-flight list.
		perLink := int64(8)
		if version < 5 {
			perLink = 28
		}
		nodes := int64(cfg.Topology.Nodes)
		if nodes > r/perLink {
			return false
		}
		need += perLink * nodes
	}
	return need <= r
}

// decodeState rebuilds a paused simulation from a payload, shared
// memory against base.
func decodeState(d *snap.Decoder, p *prog.Program, base *Image, version uint32) (*m, error) {
	name := d.String()
	hash := d.U64()
	baseHash := d.U64()
	cfg, faults := decodeConfig(d, version)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if name != p.Name {
		return nil, fmt.Errorf("%w: snapshot of program %q, restoring with %q", ErrSnapshotMismatch, name, p.Name)
	}
	if got := programHash(p); got != hash {
		return nil, fmt.Errorf("%w: program %q content hash %016x, snapshot expects %016x", ErrSnapshotMismatch, p.Name, got, hash)
	}
	if baseHash != base.Hash() {
		return nil, fmt.Errorf("%w: shared memory encoded against image %016x, restoring with image %016x", ErrSnapshotMismatch, baseHash, base.Hash())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if version < 5 && faults != impliedFaults(cfg) {
		return nil, fmt.Errorf("%w: snapshot fault fields %+v are not the ones its latency implies", ErrSnapshotMismatch, faults)
	}
	if !fitsPayload(cfg.withDefaults(), p, d.Remaining(), version) {
		return nil, fmt.Errorf("%w: %d payload bytes cannot hold the state of a %dx%d machine", ErrSnapshotMismatch, d.Remaining(), cfg.Procs, cfg.Threads)
	}
	// newSim re-validates cfg and rebuilds every derived structure at
	// cycle 0; the rest of this function overwrites the mutable state.
	sim, err := newSim(cfg, p, nil, nil)
	if err != nil {
		return nil, err
	}
	if sim.cfg != cfg {
		// The snapshot carries the effective config; re-defaulting must
		// be the identity or the snapshot was hand-built.
		return nil, fmt.Errorf("%w: snapshot config is not in effective (defaulted) form", ErrSnapshotMismatch)
	}

	sim.now = d.I64()
	sim.nowApprox = d.I64()
	sim.live = d.Int()
	sim.wakes = make([]int64, len(sim.procs))
	d.I64sInto(sim.wakes)
	if err := decodeShared(d, sim.sh, base.cells()); err != nil {
		return nil, err
	}

	for pi := range sim.procs {
		pr := &sim.procs[pi]
		pr.cur = d.Int()
		pr.live = d.Int()
		pr.resume = d.Int()
		critLive := d.I64()
		pr.critLive = int32(critLive)
		pr.busy = d.I64()
		pr.spinBusy = d.I64()
		pr.switchOverhead = d.I64()
		if err := decodeOptional(d, pr.cache != nil, "cache", pr.cache.DecodeState); err != nil {
			return nil, err
		}
		for ti := range pr.threads {
			if err := decodeThread(d, &pr.threads[ti], sim); err != nil {
				return nil, err
			}
		}
		if pr.cur < 0 || pr.cur >= len(pr.threads) || pr.resume < -1 || pr.resume >= len(pr.threads) ||
			int64(pr.critLive) != critLive {
			return nil, fmt.Errorf("%w: proc %d scheduler state out of range", ErrSnapshotMismatch, pi)
		}
	}

	if err := decodeOptional(d, sim.dir != nil, "coherence directory", sim.decodeCoherence); err != nil {
		return nil, err
	}
	if err := decodeResult(d, sim.res); err != nil {
		return nil, err
	}
	if err := decodeOptional(d, sim.congestion != nil, "congestion", sim.congestion.DecodeState); err != nil {
		return nil, err
	}
	legacy := version < 5
	if err := decodeOptional(d, sim.faults != nil, "fault-plan", func(d *snap.Decoder) error {
		return sim.faults.DecodeState(d, legacy)
	}); err != nil {
		return nil, err
	}
	if err := decodeOptional(d, sim.mx != nil, "metrics", sim.mx.DecodeState); err != nil {
		return nil, err
	}
	if err := decodeOptional(d, sim.topo != nil, "topology", func(d *snap.Decoder) error {
		return sim.topo.DecodeState(d, legacy)
	}); err != nil {
		return nil, err
	}

	if err := d.Finish(); err != nil {
		return nil, err
	}
	// Cross-field sanity: the live counters must be consistent.
	liveSum := 0
	for pi := range sim.procs {
		liveSum += sim.procs[pi].live
	}
	if liveSum != sim.live || sim.live < 0 || sim.live > cfg.Procs*cfg.Threads {
		return nil, fmt.Errorf("%w: live-thread counters inconsistent (%d vs %d)", ErrSnapshotMismatch, liveSum, sim.live)
	}
	if sim.now < 0 || sim.now > cfg.MaxCycles {
		return nil, fmt.Errorf("%w: clock %d outside [0, MaxCycles]", ErrSnapshotMismatch, sim.now)
	}
	return sim, nil
}

func encodeThread(e *snap.Encoder, t *thread) {
	e.I64(int64(t.pc))
	e.Bool(t.halted)
	for _, r := range t.regs {
		e.I64(r)
	}
	for _, r := range t.fregs {
		e.F64(r)
	}
	e.I64(t.wake)
	for _, r := range t.regReady {
		e.I64(r)
	}
	for _, r := range t.fregReady {
		e.I64(r)
	}
	e.I64(t.maxReady)
	e.I64(t.runLen)
	e.I64(t.sinceSwitch)
	e.I64(int64(t.crit))
	e.I64s(t.local)
	encodeOptional(e, t.window != nil, t.window.EncodeState)
}

func decodeThread(d *snap.Decoder, t *thread, sim *m) error {
	pc := d.I64()
	t.halted = d.Bool()
	for i := range t.regs {
		t.regs[i] = d.I64()
	}
	for i := range t.fregs {
		t.fregs[i] = d.F64()
	}
	t.wake = d.I64()
	for i := range t.regReady {
		t.regReady[i] = d.I64()
	}
	for i := range t.fregReady {
		t.fregReady[i] = d.I64()
	}
	t.maxReady = d.I64()
	t.runLen = d.I64()
	t.sinceSwitch = d.I64()
	crit := d.I64()
	t.crit = int32(crit)
	d.I64sInto(t.local)
	if d.Err() != nil {
		return d.Err()
	}
	if pc < 0 || pc >= int64(len(sim.instrs)) {
		return fmt.Errorf("%w: thread pc %d outside program of %d instructions", ErrSnapshotMismatch, pc, len(sim.instrs))
	}
	if int64(t.crit) != crit {
		return fmt.Errorf("%w: thread critical-region depth %d out of range", ErrSnapshotMismatch, crit)
	}
	t.pc = int32(pc)
	return decodeOptional(d, t.window != nil, "grouping-window", t.window.DecodeState)
}

// encodeResult writes the incrementally-updated Result counters. The
// fields finish() derives (Cycles, Busy, Idle, cache/window/net
// aggregates, ProcBusy, Metrics) are not part of the mid-run state.
func encodeResult(e *snap.Encoder, r *Result) {
	e.I64(r.Instrs)
	e.I64(r.SharedLoads)
	e.I64(r.SharedStores)
	e.I64(r.TakenSwitches)
	e.I64(r.SkippedSwitches)
	e.I64(r.ForcedSwitches)
	e.I64(r.PreemptSwitches)
	e.I64(r.SpinProbes)
	e.I64(r.CritPreempts)
	e.I64(r.ImplicitWaits)
	for _, b := range r.RunLengths.Buckets {
		e.I64(b)
	}
	e.I64(r.RunLengths.N)
	e.I64(r.RunLengths.Sum)
	e.I64(r.RunLengths.Min)
	e.I64(r.RunLengths.Max)
	r.Traffic.EncodeState(e)
}

func decodeResult(d *snap.Decoder, r *Result) error {
	r.Instrs = d.I64()
	r.SharedLoads = d.I64()
	r.SharedStores = d.I64()
	r.TakenSwitches = d.I64()
	r.SkippedSwitches = d.I64()
	r.ForcedSwitches = d.I64()
	r.PreemptSwitches = d.I64()
	r.SpinProbes = d.I64()
	r.CritPreempts = d.I64()
	r.ImplicitWaits = d.I64()
	for i := range r.RunLengths.Buckets {
		r.RunLengths.Buckets[i] = d.I64()
	}
	r.RunLengths.N = d.I64()
	r.RunLengths.Sum = d.I64()
	r.RunLengths.Min = d.I64()
	r.RunLengths.Max = d.I64()
	return r.Traffic.DecodeState(d)
}

// encodeConfig writes every Config field in declaration order. The
// snapshot carries the *effective* (defaulted) configuration, so
// restore-side defaulting is the identity.
func encodeConfig(e *snap.Encoder, cfg Config) {
	e.Int(cfg.Procs)
	e.Int(cfg.Threads)
	e.Int(int(cfg.Model))
	e.Int(cfg.Latency)
	e.Int(cfg.SwitchCost)
	e.Int(cfg.Cache.Lines)
	e.Int(cfg.Cache.LineCells)
	e.Int(cfg.Cache.Assoc)
	e.Int(cfg.RunLimit)
	e.Int(cfg.PreemptLimit)
	e.Bool(cfg.CritPriority)
	e.Int(cfg.LatencyJitter)
	e.Bool(cfg.Congestion.Enabled)
	e.Int(cfg.Congestion.Stages)
	e.Int(cfg.Congestion.HopCycles)
	e.Int(cfg.Congestion.ChannelBits)
	e.Int(cfg.Congestion.MemCycles)
	e.Int(cfg.Congestion.Window)
	e.Bool(cfg.Faults.Enabled)
	e.U64(cfg.Faults.Seed)
	e.F64(cfg.Faults.DropRate)
	e.F64(cfg.Faults.DupRate)
	e.F64(cfg.Faults.DelayRate)
	e.Bool(cfg.GroupWindow)
	e.Int(cfg.WindowCells)
	e.I64(cfg.MaxCycles)
	e.Bool(cfg.CollectRunLengths)
	e.Bool(cfg.CollectMetrics)
	e.Bool(cfg.CheckInvariants)
	e.Int(int(cfg.DispatchMode))
	e.Int(int(cfg.Topology.Kind))
	e.Int(cfg.Topology.Nodes)
	e.Int(cfg.Topology.HopCycles)
	e.Int(cfg.Topology.ChannelBits)
	e.Int(cfg.Topology.MemCycles)
}

// legacyFaults are the fault fields format 4 encoded beside the
// five FaultConfig keeps: a round-trip distribution (its kind, uniform
// spread, hot-spot rate and factor) and the recovery protocol's
// constants. No caller set them, so every snapshot an encoder wrote
// holds what the configuration implies (impliedFaults).
type legacyFaults struct {
	dist, spread int
	hotRate      float64
	hotFactor    int
	recovery     net.Recovery
}

// impliedFaults is what format 4's defaulting wrote for cfg: all zero
// for a disabled fault model; otherwise the constant distribution, a
// hot-spot factor of 4 and the protocol that cfg's latency implies.
func impliedFaults(cfg Config) legacyFaults {
	if !cfg.Faults.Enabled {
		return legacyFaults{}
	}
	return legacyFaults{hotFactor: 4, recovery: net.RecoveryFor(cfg.Latency)}
}

// decodeConfig reads what encodeConfig wrote in format version, and
// the fault fields formats before 5 carried besides.
func decodeConfig(d *snap.Decoder, version uint32) (Config, legacyFaults) {
	var cfg Config
	var lf legacyFaults
	cfg.Procs = d.Int()
	cfg.Threads = d.Int()
	cfg.Model = Model(d.Int())
	cfg.Latency = d.Int()
	cfg.SwitchCost = d.Int()
	cfg.Cache.Lines = d.Int()
	cfg.Cache.LineCells = d.Int()
	cfg.Cache.Assoc = d.Int()
	cfg.RunLimit = d.Int()
	cfg.PreemptLimit = d.Int()
	cfg.CritPriority = d.Bool()
	cfg.LatencyJitter = d.Int()
	cfg.Congestion.Enabled = d.Bool()
	cfg.Congestion.Stages = d.Int()
	cfg.Congestion.HopCycles = d.Int()
	cfg.Congestion.ChannelBits = d.Int()
	cfg.Congestion.MemCycles = d.Int()
	cfg.Congestion.Window = d.Int()
	cfg.Faults.Enabled = d.Bool()
	cfg.Faults.Seed = d.U64()
	if version < 5 {
		lf.dist = d.Int()
		lf.spread = d.Int()
		lf.hotRate = d.F64()
		lf.hotFactor = d.Int()
	}
	cfg.Faults.DropRate = d.F64()
	cfg.Faults.DupRate = d.F64()
	cfg.Faults.DelayRate = d.F64()
	if version < 5 {
		lf.recovery.Delay = d.I64()
		lf.recovery.Timeout = d.I64()
		lf.recovery.Retries = d.Int()
		lf.recovery.BackoffBase = d.I64()
		lf.recovery.BackoffMax = d.I64()
	}
	cfg.GroupWindow = d.Bool()
	cfg.WindowCells = d.Int()
	cfg.MaxCycles = d.I64()
	cfg.CollectRunLengths = d.Bool()
	cfg.CollectMetrics = d.Bool()
	cfg.CheckInvariants = d.Bool()
	cfg.DispatchMode = DispatchMode(d.Int())
	cfg.Topology.Kind = net.TopologyKind(d.Int())
	cfg.Topology.Nodes = d.Int()
	cfg.Topology.HopCycles = d.Int()
	cfg.Topology.ChannelBits = d.Int()
	cfg.Topology.MemCycles = d.Int()
	return cfg, lf
}
