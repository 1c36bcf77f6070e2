// Package cache models the per-processor shared-data cache used by the
// switch-on-miss, switch-on-use-miss and conditional-switch models (§6),
// and the tiny one-line "grouping window" used to estimate inter-block
// grouping opportunities (§5.2).
//
// Because the simulator keeps shared-memory *values* globally current
// (data visibility is immediate; only timing is delayed), the cache needs
// to track only which lines are present — hits and misses determine
// latency and network traffic, never data. Coherence is write-through
// with distributed invalidation: the machine consults a Directory to find
// and invalidate remote copies on every shared store, counting the
// invalidation and acknowledgement messages the paper includes in its
// bandwidth overhead (§6.1).
package cache

import (
	"fmt"
	"slices"
)

// Config describes a processor cache. Sizes are in memory cells (one
// simulated 64-bit cell holds one integer word or one double).
type Config struct {
	// Lines is the total number of cache lines. Must be a power of two
	// and divisible by Assoc.
	Lines int
	// LineCells is the number of memory cells per line (power of two).
	LineCells int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
}

// DefaultConfig is the cache used in the paper-style §6 experiments:
// a 64 KB equivalent (4096 eight-byte cells), 4-way set associative with
// four-cell (32-byte) lines.
func DefaultConfig() Config {
	return Config{Lines: 1024, LineCells: 4, Assoc: 4}
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	switch {
	case c.Lines <= 0 || c.Lines&(c.Lines-1) != 0:
		return fmt.Errorf("cache: Lines %d must be a positive power of two", c.Lines)
	case c.LineCells <= 0 || c.LineCells&(c.LineCells-1) != 0:
		return fmt.Errorf("cache: LineCells %d must be a positive power of two", c.LineCells)
	case c.Assoc <= 0 || c.Lines%c.Assoc != 0:
		return fmt.Errorf("cache: Assoc %d must be positive and divide Lines %d", c.Assoc, c.Lines)
	}
	return nil
}

// CellCapacity returns the cache capacity in memory cells.
func (c Config) CellCapacity() int { return c.Lines * c.LineCells }

// Cache is one processor's shared-data cache. It tracks presence only.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	setMask   int64
	// tags[set*assoc+way] holds the line address, valid[.] its state,
	// dirty[.] whether it holds modified data not yet written back.
	tags  []int64
	valid []bool
	dirty []bool
	// age implements LRU within a set: larger is more recent.
	age     []int64
	ageTick int64

	// Statistics (load-side; the machine accounts store traffic itself).
	Hits, Misses int64
	Evictions    int64
	Invals       int64 // lines invalidated by remote stores
}

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:   cfg,
		sets:  cfg.Lines / cfg.Assoc,
		tags:  make([]int64, cfg.Lines),
		valid: make([]bool, cfg.Lines),
		dirty: make([]bool, cfg.Lines),
		age:   make([]int64, cfg.Lines),
	}
	c.setMask = int64(c.sets - 1)
	for s := 1; s < cfg.LineCells; s <<= 1 {
		c.lineShift++
	}
	return c, nil
}

// MustNew is New that panics on a bad configuration.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Line returns the line address containing cell addr.
func (c *Cache) Line(addr int64) int64 { return addr >> c.lineShift }

// LineCells returns the configured line size in cells.
func (c *Cache) LineCells() int { return c.cfg.LineCells }

func (c *Cache) set(line int64) int { return int(line & c.setMask) }

func (c *Cache) find(line int64) int {
	base := c.set(line) * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

// Lookup probes for the line holding addr, recording a hit or miss and
// refreshing LRU state on a hit.
func (c *Cache) Lookup(addr int64) bool {
	if i := c.find(c.Line(addr)); i >= 0 {
		c.Hits++
		c.ageTick++
		c.age[i] = c.ageTick
		return true
	}
	c.Misses++
	return false
}

// Contains reports presence without touching statistics or LRU state.
func (c *Cache) Contains(addr int64) bool { return c.find(c.Line(addr)) >= 0 }

// Fill installs the line holding addr after a miss, returning the line
// address it evicted, whether that victim was dirty (and so must be
// written back), and whether an eviction happened at all.
func (c *Cache) Fill(addr int64) (evicted int64, evictedDirty, didEvict bool) {
	line := c.Line(addr)
	if i := c.find(line); i >= 0 {
		// Already resident: refresh recency, never duplicate a line.
		c.ageTick++
		c.age[i] = c.ageTick
		return 0, false, false
	}
	base := c.set(line) * c.cfg.Assoc
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			didEvict = false
			goto install
		}
		if c.age[i] < c.age[victim] {
			victim = i
		}
	}
	evicted, evictedDirty, didEvict = c.tags[victim], c.dirty[victim], true
	c.Evictions++
install:
	c.tags[victim] = line
	c.valid[victim] = true
	c.dirty[victim] = false
	c.ageTick++
	c.age[victim] = c.ageTick
	return evicted, evictedDirty, didEvict
}

// SetDirty marks the line holding addr as modified, reporting whether the
// line was present.
func (c *Cache) SetDirty(addr int64) bool {
	if i := c.find(c.Line(addr)); i >= 0 {
		c.dirty[i] = true
		return true
	}
	return false
}

// IsDirty reports whether the line holding addr is present and modified.
func (c *Cache) IsDirty(addr int64) bool {
	i := c.find(c.Line(addr))
	return i >= 0 && c.dirty[i]
}

// CleanLine clears the dirty bit of the line holding addr (a flush
// downgrades the owner's copy to clean).
func (c *Cache) CleanLine(addr int64) {
	if i := c.find(c.Line(addr)); i >= 0 {
		c.dirty[i] = false
	}
}

// Invalidate drops the line holding addr if present (remote store),
// reporting whether a copy existed and whether it was dirty.
func (c *Cache) Invalidate(addr int64) (present, wasDirty bool) {
	if i := c.find(c.Line(addr)); i >= 0 {
		c.valid[i] = false
		wasDirty = c.dirty[i]
		c.dirty[i] = false
		c.Invals++
		return true, wasDirty
	}
	return false, false
}

// EachLine calls f with every line the cache holds and whether it
// holds it dirty, stopping at the first error f returns.
func (c *Cache) EachLine(f func(line int64, dirty bool) error) error {
	for i, valid := range c.valid {
		if valid {
			if err := f(c.tags[i], c.dirty[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// HitRate returns the fraction of lookups that hit.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Directory tracks which processors hold a copy of each cache line, so a
// store can invalidate exactly the remote sharers (and the accounting can
// count one invalidation plus one acknowledgement per copy). It plays the
// role of the paper's assumed coherence machinery without simulating a
// protocol.
type Directory struct {
	sharers map[int64][]int32
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{sharers: make(map[int64][]int32)}
}

// AddSharer records that processor p caches line.
func (d *Directory) AddSharer(line int64, p int32) {
	s := d.sharers[line]
	for _, q := range s {
		if q == p {
			return
		}
	}
	d.sharers[line] = append(s, p)
}

// RemoveSharer records that processor p no longer caches line (eviction
// or invalidation).
func (d *Directory) RemoveSharer(line int64, p int32) {
	s := d.sharers[line]
	for i, q := range s {
		if q == p {
			s[i] = s[len(s)-1]
			s = s[:len(s)-1]
			if len(s) == 0 {
				delete(d.sharers, line)
			} else {
				d.sharers[line] = s
			}
			return
		}
	}
}

// Sharers appends the processors caching line to dst and returns it.
func (d *Directory) Sharers(line int64, dst []int32) []int32 {
	return append(dst, d.sharers[line]...)
}

// Lines appends every line some processor caches to dst, in ascending
// order, and returns it.
func (d *Directory) Lines(dst []int64) []int64 {
	n := len(dst)
	dst = slices.Grow(dst, len(d.sharers))
	for line := range d.sharers {
		dst = append(dst, line)
	}
	slices.Sort(dst[n:])
	return dst
}

// Window is the §5.2 grouping-estimation device: a one-line, 32-word
// buffer per thread. A shared load that hits the window is assumed to
// belong to the same structure or array as the preceding reference and
// therefore could have been issued with it — the machine gives such a
// load the *same completion time* as the reference that set the window,
// instead of a fresh round trip, and does not count a fresh group.
type Window struct {
	line    int64
	readyAt int64
	valid   bool
	shift   uint

	Hits, Misses int64
}

// NewWindow returns a window covering lineCells cells per line. The
// paper's window is 32 (32-bit) words = 16 of our 64-bit cells.
func NewWindow(lineCells int) *Window {
	if lineCells <= 0 || lineCells&(lineCells-1) != 0 {
		panic(fmt.Sprintf("cache: window line size %d must be a positive power of two", lineCells))
	}
	w := &Window{}
	for s := 1; s < lineCells; s <<= 1 {
		w.shift++
	}
	return w
}

// Probe checks addr against the window. On a hit it returns the
// completion time of the reference that established the window; on a miss
// it re-establishes the window with the new line and completion time.
func (w *Window) Probe(addr, readyAt int64) (hitReadyAt int64, hit bool) {
	line := addr >> w.shift
	if w.valid && line == w.line {
		w.Hits++
		return w.readyAt, true
	}
	w.Misses++
	w.line = line
	w.readyAt = readyAt
	w.valid = true
	return 0, false
}

// HitRate returns the fraction of probes that hit.
func (w *Window) HitRate() float64 {
	total := w.Hits + w.Misses
	if total == 0 {
		return 0
	}
	return float64(w.Hits) / float64(total)
}
