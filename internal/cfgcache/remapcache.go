package cfgcache

import "agingcgra/internal/fabric"

// RemapCache memoizes shape-remapped configurations per hot region,
// alongside the PC-indexed translation cache: the shape search (a mapper
// run per candidate shape × anchor) is far too expensive to repeat on
// every offload of a blocked configuration. Which placements *exist* is a
// pure function of the instruction sequence and the health map; how they
// *rank* additionally snapshots the allocator's observed duty at search
// time, so an entry is the decision taken at the region's first offload
// under one fabric state — deliberately held, like the explorer's pivot
// hold period, rather than re-ranked as within-run duty drifts. Entries
// are keyed by the configuration's StartPC and valid for exactly one
// health version: a cell death invalidates which placements exist, so a
// version change flushes the cache wholesale (versions only grow; every
// entry is stale). Wear is not part of the key: it is fixed for the
// lifetime of the allocator that owns the cache. Negative results are cached
// too — a region no shape can place stays on the GPP without re-searching
// until the fabric state changes.
type RemapCache struct {
	healthVer uint64
	valid     bool
	entries   map[uint32]RemapEntry
	stats     RemapStats
}

// RemapEntry is one memoized shape-search outcome.
type RemapEntry struct {
	// Cfg is the remapped configuration and Off the pivot it fits at; both
	// are zero when OK is false (no live placement under any shape).
	Cfg *fabric.Config
	Off fabric.Offset
	OK  bool
}

// RemapStats counts remap-cache events.
type RemapStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// NewRemapCache builds an empty remap cache.
func NewRemapCache() *RemapCache {
	return &RemapCache{entries: make(map[uint32]RemapEntry)}
}

// sync flushes the cache when the observed fabric state moved past the one
// the entries were computed for.
func (rc *RemapCache) sync(healthVer uint64) {
	if rc.valid && rc.healthVer == healthVer {
		return
	}
	if len(rc.entries) > 0 {
		rc.entries = make(map[uint32]RemapEntry)
		rc.stats.Flushes++
	}
	rc.healthVer, rc.valid = healthVer, true
}

// Lookup returns the memoized outcome for the region starting at pc under
// the given health version, if one is cached.
func (rc *RemapCache) Lookup(pc uint32, healthVer uint64) (RemapEntry, bool) {
	rc.sync(healthVer)
	e, ok := rc.entries[pc]
	if ok {
		rc.stats.Hits++
	} else {
		rc.stats.Misses++
	}
	return e, ok
}

// Insert memoizes a shape-search outcome for the region starting at pc.
func (rc *RemapCache) Insert(pc uint32, healthVer uint64, e RemapEntry) {
	rc.sync(healthVer)
	rc.entries[pc] = e
}

// Len returns the number of memoized regions for the current fabric state.
func (rc *RemapCache) Len() int { return len(rc.entries) }

// Stats returns the event counters.
func (rc *RemapCache) Stats() RemapStats { return rc.stats }
