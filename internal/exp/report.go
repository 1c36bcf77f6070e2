package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// commentary holds, per experiment, the measured-vs-paper reading that
// EXPERIMENTS.md records. The text states which of the paper's claims the
// artifact reproduces and where our kernels' absolute numbers differ and
// why. It is maintained alongside the generators so the report never
// drifts from what the code measures.
var commentary = map[string]string{
	"figure1": `All eight models of the taxonomy run the same workload and order as the
paper's Figure 1 narrative predicts: the ideal machine bounds everything;
switch-on-load/use/explicit behave identically on sieve (whose accesses
are one-at-a-time, so grouping cannot help); the cache-based models beat
them at equal thread counts; conditional-switch skips the large majority
of its switch instructions on cache hits.`,

	"table1": `Seven applications with the paper's parallelization structure. Our
"instrs" column counts static IR instructions where the paper counted C
source lines, and single-processor cycle counts are smaller than the
paper's 87M-1353M because problem sizes are scaled (flag-selectable);
the relative ordering (blkmat compute-heavy, ugray largest code) matches.`,

	"figure2": `Reproduces the first Figure 2 observation: efficiency stays near 1 until
the fixed-size problem is divided too finely. water leaves the linear
region first (0.91 at 16 processors) and blkmat falls fastest once it
runs out of block tasks (0.56 at 128). The second observation, water's
sensitivity to static balance (the paper's 256 vs 343 procs), shows
only at quick scale, where 7 processors, a divisor of the molecule
count, reach 0.96 against 0.92 at 8; at this scale both read 0.96 at
the same 1.02 imbalance.`,

	"table2": `The distribution shapes are the paper's: sor is dominated by 1-2 cycle
run-lengths (paper: 39%+39%; ours concentrates even harder at 1 because
the five stencil loads sit back-to-back), locus and mp3d are short
(means ~6 and ~11), sieve is "fairly constant" (one narrow bucket holds
>90%), and blkmat's mean is an order of magnitude above the rest because
of its private block copies — the paper's "exceptionally high" case.`,

	"figure3": `sieve's efficiency climbs with the multithreading level exactly as in
the paper's Figure 3, with the ideal curve bounding the family and the
curves collapsing at higher processor counts as the fixed problem runs
out of segments. Our sieve saturates near 90% around level 12-19 where
the paper reached ~100% at 12: our counting loop issues a load every
~10 cycles versus their ~18, so slightly more threads are needed —
the 200/(run-length) scaling the paper derives holds.`,

	"table3": `Matches the paper's switch-on-load story: blkmat needs almost no
threads; sieve needs a moderate level; sor is *bounded* well below 60%
by its 1-2 cycle run-lengths no matter the level (the paper's "it is
inevitable that cycles are lost"), and so is ugray; locus needs very
large levels for mediocre efficiency, and mp3d reaches 90% only near
the search cap (47 threads at medium scale).`,

	"figure4": `The optimizer reorganizes sor's inner loop exactly as the paper's
Figure 4 shows: the five stencil loads are hoisted together, one explicit
switch follows the group (plus whatever independent work fits before it),
and the uses come after. The static grouping report confirms one
five-load group per loop body.`,

	"table4": `Grouping eliminates the short run-lengths "completely" (sor's 1-2 cycle
share drops from ~80% to ~0) and the dynamic grouping factors line up
with the paper: sor ~5 (its five-load stencil), water ~3 (coordinate
triples), sieve/blkmat 1.0 (nothing to group, as the paper notes), and
locus ~1.02 with a mean run-length of ~7-8 — the paper's "mean run-length
of 8 cycles is still too short" case.`,

	"table5": `The paper's headline table. With grouping, sor reaches 90% with 8
threads and water with 6 (paper: "14 or fewer threads" suffice to
maximize); mp3d reaches 80-90% with 7-9; locus remains run-length-bound
(paper: same); and the reorganization penalty is a few percent for the
apps that group well (sor +3.3%, water +2.0%, blkmat +0.4%) and largest
for the 1-load-group apps (ugray/locus +13-16%) where every load pays a
switch instruction — consistent with the paper's "often just a few
percent ... in all cases overshadowed by the benefits".`,

	"table6": `The §5.2 window experiment. locus hits the window 82-83% of the time —
the paper measured 84% — because its horizontal cost-array walks step
through consecutive addresses; ugray hits ~59% (paper: 42%) through its
face-record fields. The estimated grouping factors roughly double, and
the revised multithreading requirements drop sharply (at medium scale
ugray reaches 70% with 16 threads, where Table 5 reached no target) — the paper's
"dramatic potential for compiler based grouping".`,

	"table7": `The §6.1 bandwidth study under write-back directory coherence. Hit
rates are >90% for the spatially-local codes and total traffic falls for
every application (column "traffic ratio"), with sor and water cut by an
order of magnitude; mp3d keeps one of the two lowest hit rates and the
highest absolute demand and benefits least — the paper's "very poor reference
locality ... benefits little from caching". Note the per-cycle demand of
the fast-improving apps can *rise* because the cached run finishes much
sooner; the paper saw the same non-proportionality ("the bandwidth does
not decrease proportionally to the access rate").`,

	"table8": `Conditional-switch: most applications reach 80% efficiency with 6 or
fewer threads (sieve 1, water 1-2, blkmat 2, sor 4; mp3d needs 7), the
paper's headline claim ("execution efficiencies of 80% or better can be
achieved with 6 threads or less"). ugray and locus need more threads
than the paper's versions because our kernels' hit rates sit below their
originals'; their shapes (cache helps, level drops vs Table 5) hold.`,

	"ablation-latency": `Extension. The threads needed for 70% efficiency grow roughly linearly
with the round-trip latency, as the paper's run-length model predicts
(threads ~ latency / run-length + 1). At 400+ cycles — more than twice
the DASH latency the paper compares against in §7 — moderate levels
still reach 70%, supporting the paper's claim that grouping tolerates
"a latency more than twice that used in the DASH study".`,

	"ablation-linesize": `Extension. At constant capacity, longer cache lines keep helping the
spatially-local sor (higher hit rate, lower bandwidth) while mp3d's
scattered cell lookups waste most of each longer line: its bandwidth
roughly triples from 4-cell to 16-cell lines for a few points of hit
rate — the §6.1 "larger message sizes" overhead made explicit.`,

	"ablation-switchcost": `Extension. Charging the switch-on-miss model a realistic pipeline-flush
cost (the paper argues several cycles, §2/§3) costs it several points of
efficiency at high switch rates; at zero cost it matches
switch-on-use-miss timing. This quantifies why the paper's models
identify switches at decode, where they are free.`,

	"ablation-priority": `Extension evaluating the paper's §6.2 suggestion. With neither fix, a
sibling's long cache-hit run strands the woken lock holder and the
serialized lock chain stretches by an order of magnitude. The paper's
200-cycle run limit recovers ~14x. Holder priority *alone* recovers far
less — our finding: it bounds only the holding time, while the
spin-waiting acquirers are still stranded behind sibling runs. Priority
layered on top of the run limit is the best configuration (~16-20x),
so the suggestion is confirmed as an addition to, not a replacement
for, the run limit.`,

	"ablation-network": `Extension implementing the paper's stated future work: per-hop M/D/1
queueing that grows with the injected bandwidth. The feedback loop the
constant-latency model hides appears immediately: the uncached model
saturates the network (peak utilization pinned at the 0.97 clamp) and
needs many threads for moderate efficiency. The cache relieves the
network only for a kernel with locality. sor under conditional-switch
is the one row below the clamp (0.92) and reaches 0.93 efficiency with
two threads. mp3d's poor locality saturates the network under
conditional-switch too, and at 12 and 16 threads it falls below
explicit-switch (0.45 and 0.48 against 0.58 and 0.69). This is §6.1's
bandwidth argument, closed through the network.`,

	"ablation-topology": `Extension replacing the constant round trip with routed networks for
the irregular kernels, whose scattered, dependent loads pay per-link
FIFO queueing hop by hop. On the constant network efficiency roughly
doubles with each doubling of threads, as the paper's latency-hiding
model predicts. On the routed networks it barely moves: the added
threads inject more scattered requests, the shared links queue them
(one message waits more than a thousand cycles for a single link), and
the latency grows by about as much as the threads would have hidden.
The fat tree is the slowest (its worst round trips run more than twice
the mesh's); at two threads the dragonfly even beats the constant round
trip. This is §6.1's bandwidth warning on a network whose latency
depends on load: more threads buy nothing once the links saturate.`,

	"ablation-mp3dsort": `Extension answering the paper's closing wish for mp3d. Laying particles
out in space-cell order (same kernel, same instruction stream) raises
the hit rate and trims bandwidth and context switches, but only
modestly: the particle records themselves stream through the cache once
per step, and no data layout fixes that. The result supports the
paper's pessimism — mp3d needs algorithmic restructuring, not just
layout, to become cache-friendly.`,

	"ablation-faults": `Extension breaking the §3 perfect-network assumption outright: replies
are dropped, delayed past the requester's timeout, and duplicated, and
a recovery protocol (timeout, NACK-retry with capped exponential
backoff, sequence-number dedup) pays for it in cycles. Every cell still
computes the correct answer — faults cost time, never correctness — and
because the fault schedule is a pure function of (seed, access number),
each degraded run is as deterministic and memoizable as a clean one.
Low rates are nearly free (the protocol's timeouts overlap other
threads' work, the same slack that hides latency); the harsh column
compounds retries with jitter and shows which applications have slack
left to absorb them.`,

	"ablation-jitter": `Extension relaxing the §3 constant-latency assumption with
deterministic per-access deviations (unordered delivery). Applications
with slack in their thread coverage are nearly unaffected; an
application running exactly at its coverage point (sor with 8 threads)
loses efficiency roughly in proportion to the jitter, because replies
no longer return in round-robin order. This bounds how much the paper's
ordered-delivery simplification could flatter its results.`,
}

// WriteReport runs every experiment (paper artifacts and ablations) and
// writes EXPERIMENTS.md-style markdown: the paper's expectation, the
// measured table, and the comparison commentary.
func WriteReport(o *Options, w io.Writer) error {
	fmt.Fprintf(w, `# EXPERIMENTS — paper vs. measured

Reproduction of Boothe & Ranade, "Improved Multithreading Techniques for
Hiding Communication Latency in Multiprocessors" (ISCA 1992).

Every table below was regenerated by this build at the **%s** problem
scale with a %d-cycle round-trip latency; every simulated run was
verified against a host-computed reference before being reported.
Regenerate with:

    go run ./cmd/experiments -scale %s -ablations -report FILE

Absolute numbers come from our IR kernels on our simulator, so the
comparison with the paper is about *shape*: which model wins, by roughly
what factor, and where the crossovers fall (see DESIGN.md §2 for the
substitution rationale).

`, o.Scale, o.Latency, o.Scale)

	sections := []struct {
		title string
		exps  []*Experiment
	}{
		{"Paper artifacts", All()},
		{"Ablations and extensions", Ablations()},
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "## %s\n\n", sec.title)
		outs, times, err := Rendered(o, sec.exps)
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		for i, e := range sec.exps {
			fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Title)
			fmt.Fprintf(w, "**Paper:** %s\n\n", e.Paper)
			fmt.Fprintf(w, "```\n%s```\n\n", strings.TrimLeft(outs[i], "\n"))
			if c, ok := commentary[e.ID]; ok {
				fmt.Fprintf(w, "%s\n\n", strings.TrimSpace(c))
			}
			fmt.Fprintf(w, "_regenerated in %v_\n\n", times[i].Round(time.Millisecond))
		}
	}
	return nil
}
