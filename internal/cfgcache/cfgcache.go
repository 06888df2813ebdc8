// Package cfgcache implements TransRec's configuration cache: translated
// CGRA configurations indexed by the PC of their first instruction (Fig. 2,
// step 3/4 of the paper), with bounded capacity and LRU replacement.
//
// Two invariants carry the rest of the system:
//
//   - Probe cost: the hot loop probes twice per retired instruction, so
//     Cache maintains a dense table indexed by (PC − TextBase)/4 kept in
//     exact sync with the authoritative LRU map — a lookup is one array
//     load, and the map remains the fallback for out-of-window PCs.
//   - State keying: a cached artifact is a decision taken under one
//     fabric state. Cache.SyncState flushes translations wholesale when
//     the observed (health, wear) versions move (the shape-translating
//     DBT's contract), and RemapCache keys rescue-search outcomes —
//     positive and negative — on (StartPC, Health.Version, Wear.Version).
//     Neither structure ever serves an entry recorded under a different
//     version than the caller currently observes.
package cfgcache

import "agingcgra/internal/fabric"

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	// Flushes counts wholesale state invalidations (SyncState observing a
	// moved health/wear version under shape-aware translation).
	Flushes uint64
}

// HitRate returns hits / (hits + misses), or 0 when empty.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	cfg        *fabric.Config
	prev, next *entry
}

// Cache is a PC-indexed configuration cache. The zero value is not usable;
// call New.
type Cache struct {
	capacity int
	entries  map[uint32]*entry
	// head is most recently used / most recently inserted; tail is the
	// eviction candidate.
	head, tail *entry
	stats      Stats

	// dense, when non-nil, is a direct translation table over a contiguous
	// window of word-aligned PCs starting at denseBase: slot (pc-denseBase)/4
	// holds the resident entry for pc, or nil. The map stays authoritative
	// (it backs replacement and out-of-window PCs); the dense table is a
	// probe accelerator the engine attaches over the text segment so the
	// per-retired-instruction residency checks become one array load.
	dense     []*entry
	denseBase uint32

	// State keying for shape-aware translation (SyncState): the (health,
	// wear) versions the resident translations' shape decisions were taken
	// under, mirroring RemapCache's wholesale-flush contract.
	stateHealth uint64
	stateWear   uint64
	stateValid  bool
}

// New builds a cache holding at most capacity configurations.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[uint32]*entry, capacity),
	}
}

// SyncState keys the resident translations on the fabric state their shape
// decisions were taken under, mirroring cfgcache.RemapCache: when the
// observed (health version, wear version) pair moves past the recorded
// one, every resident translation's shape was chosen for a fabric that no
// longer exists — a death changes which shapes place, a wear advance
// changes which shape the wear tie-break prefers — so the cache flushes
// wholesale (versions only grow; every entry is stale) and reports it, and
// the engine lets the trace builder re-translate against the new state.
// The first call only records the state. Engines translating
// shape-unaware never call this and keep the plain PC-keyed behaviour.
func (c *Cache) SyncState(healthVer, wearVer uint64) (flushed bool) {
	if c.stateValid && c.stateHealth == healthVer && c.stateWear == wearVer {
		return false
	}
	moved := c.stateValid
	c.stateHealth, c.stateWear, c.stateValid = healthVer, wearVer, true
	if moved && len(c.entries) > 0 {
		c.Clear()
		c.stats.Flushes++
		return true
	}
	return false
}

// Capacity returns the configured entry limit.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident configurations.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// EnableDense attaches (or re-attaches) a dense translation table covering
// n word-aligned instructions starting at base — typically the program's
// text segment. Already-resident in-window configurations are indexed;
// calling it again with the same window is a no-op so it is cheap to invoke
// at the top of every run.
func (c *Cache) EnableDense(base uint32, n int) {
	if n <= 0 {
		return
	}
	if c.dense != nil && c.denseBase == base && len(c.dense) == n {
		return
	}
	c.denseBase = base
	c.dense = make([]*entry, n)
	for pc, e := range c.entries {
		if i, ok := c.denseSlot(pc); ok {
			c.dense[i] = e
		}
	}
}

// denseSlot maps pc to its dense-table index, if the table covers it.
func (c *Cache) denseSlot(pc uint32) (int, bool) {
	if c.dense == nil {
		return 0, false
	}
	// pc < denseBase wraps to a huge offset and fails the length check.
	off := pc - c.denseBase
	if off&3 != 0 {
		return 0, false
	}
	i := int(off >> 2)
	if i >= len(c.dense) {
		return 0, false
	}
	return i, true
}

// probe finds the entry for pc without touching stats or recency, through
// the dense table when it covers pc.
func (c *Cache) probe(pc uint32) (*entry, bool) {
	if i, ok := c.denseSlot(pc); ok {
		e := c.dense[i]
		return e, e != nil
	}
	e, ok := c.entries[pc]
	return e, ok
}

// Lookup finds the configuration starting at pc, updating hit/miss counts
// and recency.
func (c *Cache) Lookup(pc uint32) (*fabric.Config, bool) {
	e, ok := c.probe(pc)
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e.cfg, true
}

// Contains reports residency without touching stats or recency.
func (c *Cache) Contains(pc uint32) bool {
	_, ok := c.probe(pc)
	return ok
}

// Insert stores a configuration, evicting if necessary. Re-inserting an
// existing StartPC replaces the old configuration.
func (c *Cache) Insert(cfg *fabric.Config) {
	if cfg == nil {
		return
	}
	if e, ok := c.entries[cfg.StartPC]; ok {
		e.cfg = cfg
		c.moveToFront(e)
		c.stats.Insertions++
		return
	}
	if len(c.entries) >= c.capacity {
		c.evict()
	}
	e := &entry{cfg: cfg}
	c.entries[cfg.StartPC] = e
	if i, ok := c.denseSlot(cfg.StartPC); ok {
		c.dense[i] = e
	}
	c.pushFront(e)
	c.stats.Insertions++
}

// Remove drops the configuration starting at pc, if resident.
func (c *Cache) Remove(pc uint32) {
	if e, ok := c.entries[pc]; ok {
		c.unlink(e)
		delete(c.entries, pc)
		if i, ok := c.denseSlot(pc); ok {
			c.dense[i] = nil
		}
	}
}

// Clear drops every entry, keeping statistics.
func (c *Cache) Clear() {
	c.entries = make(map[uint32]*entry, c.capacity)
	c.head, c.tail = nil, nil
	if c.dense != nil {
		clear(c.dense)
	}
}

// Configs returns the resident configurations from most to least recent.
func (c *Cache) Configs() []*fabric.Config {
	out := make([]*fabric.Config, 0, len(c.entries))
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.cfg)
	}
	return out
}

func (c *Cache) evict() {
	if c.tail == nil {
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.entries, victim.cfg.StartPC)
	if i, ok := c.denseSlot(victim.cfg.StartPC); ok {
		c.dense[i] = nil
	}
	c.stats.Evictions++
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
