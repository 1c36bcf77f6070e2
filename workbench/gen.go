package main

import (
	"math/rand/v2"
	"sort"

	"mtsim/internal/apps"
	"mtsim/internal/machine"
	"mtsim/internal/serve"
)

// spec is one simulation configuration of the generated input: the
// fields the generator varies, in wire form.
type spec struct {
	App     string
	Model   string
	Procs   int
	Threads int
	Latency int
	Topo    string
}

// request is the spec as the /v2 wire config; the constant network is
// sent as an absent topology, the way a client that never heard of
// topologies would send it.
func (s spec) request() serve.ConfigRequest {
	c := serve.ConfigRequest{Procs: s.Procs, Threads: s.Threads, Model: s.Model, Latency: s.Latency}
	if s.Topo != "constant" {
		c.Topology = &serve.TopologyRequest{Kind: s.Topo}
	}
	return c
}

// machine resolves the spec exactly as the server does.
func (s spec) machine() (machine.Config, error) {
	c := s.request()
	return c.ToMachine()
}

// Generated value sets. Models are the paper's switch-on-load family
// plus its two contributions and the two cache models; topologies list
// the constant network twice so it is drawn with probability 2/5.
var (
	genModels = []string{"switch-on-load", "switch-on-use", "explicit-switch", "switch-on-miss", "conditional-switch"}
	genShapes = [][2]int{{4, 1}, {4, 2}, {4, 4}, {8, 1}, {8, 2}, {8, 4}, {16, 1}, {16, 2}, {16, 4}}
	genTopos  = []string{"constant", "constant", "mesh", "fattree", "dragonfly"}
)

// genLatencies is 100..400 cycles in steps of 5.
func genLatencies() []int {
	var out []int
	for l := 100; l <= 400; l += 5 {
		out = append(out, l)
	}
	return out
}

// usesCache reports whether a generated model runs with a cache.
func usesCache(model string) bool {
	m, err := machine.ParseModel(model)
	return err == nil && m.UsesCache()
}

// deck draws from items in seeded shuffled passes: every value appears
// once per pass, so any prefix of the draws is balanced to within one
// pass. That keeps a time-bounded run's mix, and so its throughput,
// nearly independent of the seed, while the order still varies with it.
type deck[T any] struct {
	items []T
	order []int
	pos   int
	r     *rand.Rand
}

func newDeck[T any](r *rand.Rand, items []T) *deck[T] {
	d := &deck[T]{items: items, order: make([]int, len(items)), r: r}
	for i := range d.order {
		d.order[i] = i
	}
	d.pos = len(d.order)
	return d
}

func (d *deck[T]) next() T {
	if d.pos == len(d.order) {
		d.r.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	v := d.items[d.order[d.pos]]
	d.pos++
	return v
}

// PCG streams: each use of the seed gets its own, so changing how one
// list is drawn never shifts another.
const (
	streamSpecs = iota + 1
	streamDraws
	streamReplay
	streamCheck
	streamReservoir
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// generator produces specs: uniform over apps.AllNames(), the five
// models, the nine processor × thread shapes, the topologies and the
// latencies, each from its own deck.
//
// Cache models (switch-on-miss, conditional-switch) always get the
// constant network. On a routed topology they fall off a cliff that is
// a simulator problem, not a serving one, and would swamp every other
// op: hashjoin under switch-on-miss with 16 processors, 4 threads and
// latency 200 on the mesh reaches only 262,857 simulated cycles after
// 60 s of host time, while the same run on the constant network
// finishes in 7.8 ms at 21,787 cycles. sor under switch-on-use-miss on
// the fat-tree and mp3d under conditional-switch on the fat-tree behave
// the same way. Until that is fixed these pairs stay out of the input.
type generator struct {
	app   *deck[string]
	model *deck[string]
	shape *deck[[2]int]
	topo  *deck[string]
	lat   *deck[int]
}

func newGenerator(seed uint64) *generator {
	r := newRand(seed, streamSpecs)
	return &generator{
		app:   newDeck(r, apps.AllNames()),
		model: newDeck(r, genModels),
		shape: newDeck(r, genShapes),
		topo:  newDeck(r, genTopos),
		lat:   newDeck(r, genLatencies()),
	}
}

func (g *generator) next() spec {
	sh := g.shape.next()
	s := spec{App: g.app.next(), Model: g.model.next(), Procs: sh[0], Threads: sh[1],
		Topo: g.topo.next(), Latency: g.lat.next()}
	if usesCache(s.Model) {
		s.Topo = "constant"
	}
	return s
}

// uniqueSpecs draws n pairwise-distinct specs: a repeat gets a fresh
// latency, and after a full pass of latencies a fresh shape, so the
// session memo never serves an op of a list meant to simulate.
func (g *generator) uniqueSpecs(n int) []spec {
	seen := make(map[spec]bool, n)
	out := make([]spec, 0, n)
	for len(out) < n {
		s := g.next()
		for tries := 1; seen[s]; tries++ {
			s.Latency = g.lat.next()
			if tries%len(g.lat.items) == 0 {
				sh := g.shape.next()
				s.Procs, s.Threads = sh[0], sh[1]
			}
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// opList is a workload's generated input. Op i runs specs
// opSpecs(i): one spec per op, two for batch workloads, or a draw from
// a small pool for the warm workloads.
type opList struct {
	specs   []spec
	entries int     // specs per op, without draws
	draws   []uint8 // pool index per op; nil for unique lists
	nominal int     // the op count the workload is sized for
}

// listFactor sizes generated lists past the nominal op count, so a run
// on a faster host or program still never repeats an op.
const listFactor = 4

// len is the number of distinct ops before the list repeats.
func (l *opList) len() int {
	if l.draws != nil {
		return len(l.draws)
	}
	return len(l.specs) / l.entries
}

// opSpecs returns the specs op i runs (i wraps past len).
func (l *opList) opSpecs(i int) []spec {
	i %= l.len()
	if l.draws != nil {
		return l.specs[l.draws[i] : l.draws[i]+1]
	}
	return l.specs[i*l.entries : (i+1)*l.entries]
}

// uniqueList generates nominal ops of entries distinct specs each.
func uniqueList(seed uint64, nominal, entries int) *opList {
	g := newGenerator(seed)
	return &opList{specs: g.uniqueSpecs(listFactor * nominal * entries), entries: entries, nominal: nominal}
}

// poolList generates a pool of distinct specs and nominal ops drawn
// uniformly from it. The app deck makes a 20-spec pool hold every app
// exactly twice.
func poolList(seed uint64, poolSize, nominal int) *opList {
	g := newGenerator(seed)
	l := &opList{specs: g.uniqueSpecs(poolSize), entries: 1, nominal: nominal}
	idx := make([]uint8, poolSize)
	for i := range idx {
		idx[i] = uint8(i)
	}
	d := newDeck(newRand(seed, streamDraws), idx)
	l.draws = make([]uint8, listFactor*nominal)
	for i := range l.draws {
		l.draws[i] = d.next()
	}
	return l
}

// sampleIndices picks k distinct indices of [0, n) from the seeded
// stream, sorted; all of them when k >= n.
func sampleIndices(seed, stream uint64, n, k int) []int {
	if k >= n {
		k = n
	}
	out := newRand(seed, stream).Perm(n)[:k]
	sort.Ints(out)
	return out
}

// replaySample is the seeded 5% of the nominal op list (at least
// minOps) the traced run replays layer by layer. It depends only on
// the seed, so the simulated work it covers is identical between runs.
func replaySample(seed uint64, l *opList, minOps int) []int {
	return sampleIndices(seed, streamReplay, l.nominal, max(minOps, l.nominal/20))
}

// checkSample is the seeded 5% (at least one) of the nominal ops whose
// outputs the cold workloads keep and compare against the library
// after the measured phase; sampled ops the run never reached are not
// checked.
func checkSample(seed uint64, nominal int) []int {
	return sampleIndices(seed, streamCheck, nominal, max(1, nominal/20))
}
