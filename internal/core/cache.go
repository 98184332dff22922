package core

import (
	"sync"
	"time"

	"github.com/predcache/predcache/internal/storage"
)

// Config controls a predicate cache instance.
type Config struct {
	// Kind selects the entry representation. Default: BitmapIndex, matching
	// the paper's default configuration (§5.1).
	Kind EntryKind
	// MaxRanges bounds the number of ranges per slice entry for RangeIndex.
	// The paper's prototype stores 16,384 ranges per data slice (§5.2);
	// this default keeps a few MB per entry at laptop scale.
	MaxRanges int
	// RowsPerBlock is the bitmap granularity for BitmapIndex; the paper uses
	// 1,000 rows per block (§5.1).
	RowsPerBlock int
	// MemBudget caps total cache memory in bytes; 0 means unlimited. The
	// least-recently-used entries are evicted beyond the budget.
	MemBudget int

	// AdmitAfter implements the cost-based caching decision the paper
	// sketches (§4.1: "a cost-based optimizer could decide which predicates
	// to cache based on the selectivity and repetitiveness"): an entry is
	// only created once the same key has been seen this many times. 0 or 1
	// caches on first sight (the paper's prototype behaviour).
	AdmitAfter int

	// MaxSelectivity skips caching predicates whose qualifying rows exceed
	// this fraction of the scanned rows (0 disables the check): an entry
	// covering nearly the whole table cannot skip anything and only costs
	// memory.
	MaxSelectivity float64
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{Kind: BitmapIndex, MaxRanges: 16384, RowsPerBlock: 1000}
}

func (c Config) withDefaults() Config {
	if c.MaxRanges <= 0 {
		c.MaxRanges = 16384
	}
	if c.RowsPerBlock <= 0 {
		c.RowsPerBlock = 1000
	}
	return c
}

// Stats reports cache activity counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	Extends       int64
	Evictions     int64
	Invalidations int64
	// AdmissionDeferred counts inserts skipped because the key had not yet
	// repeated AdmitAfter times; AdmissionRejected counts inserts skipped by
	// the MaxSelectivity bound.
	AdmissionDeferred int64
	AdmissionRejected int64
	Entries           int
	MemBytes          int
}

// Candidates is the result of a cache hit: a read-only view of the entry's
// per-slice state as it stood when the hit was served. For every slice it
// gives the candidate row ranges (cached qualifying rows up to the
// watermark) and the watermark itself. Rows at or beyond the watermark must
// be scanned with the normal path and merged back via Extend.
//
// The state is shared with the cache, not copied: a published entry's
// slice state is immutable (Extend publishes a changed copy, Insert a new
// entry), so a Candidates may be read without the cache's lock for as long
// as its holder likes, and serving a hit allocates nothing.
type Candidates struct {
	Key     string
	EstRows int
	Kind    EntryKind

	slices       []*sliceEntry
	rowsPerBlock int
}

// NumSlices returns the number of slices the entry covers.
func (c Candidates) NumSlices() int { return len(c.slices) }

// Watermark returns the number of rows of slice i the entry covers.
func (c Candidates) Watermark(i int) int { return c.slices[i].watermark }

// AppendRanges appends slice i's candidate row ranges — ascending,
// non-overlapping and clipped to its watermark — to dst and returns the
// extended slice. It allocates only if dst must grow.
func (c Candidates) AppendRanges(i int, dst []storage.RowRange) []storage.RowRange {
	n := len(dst)
	se := c.slices[i]
	if c.Kind == RangeIndex {
		dst = append(dst, se.ranges...)
	} else {
		dst = se.appendBitmapRanges(dst, c.rowsPerBlock)
	}
	storage.AssertRowRanges(dst[n:], se.watermark, "core.Candidates.AppendRanges")
	return dst
}

// Cache is a per-node predicate cache. All methods are safe for concurrent
// use.
type Cache struct {
	mu      sync.Mutex
	cfg     Config            // immutable after NewCache
	entries map[string]*entry // guarded by mu
	head    *entry            // guarded by mu; most recently used
	tail    *entry            // guarded by mu; least recently used
	mem     int               // guarded by mu
	stats   Stats             // guarded by mu

	// observed counts key sightings for the AdmitAfter policy.
	observed map[string]int // guarded by mu
}

// NewCache creates a predicate cache.
func NewCache(cfg Config) *Cache {
	return &Cache{
		cfg:      cfg.withDefaults(),
		entries:  make(map[string]*entry),
		observed: make(map[string]int),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.MemBytes = c.mem
	return s
}

// Clear drops all entries and admission history.
func (c *Cache) Clear() {
	c.mu.Lock()
	c.entries = make(map[string]*entry)
	c.observed = make(map[string]int)
	c.head, c.tail = nil, nil
	c.mem = 0
	c.mu.Unlock()
}

// --- intrusive LRU list ---

// pclint:held — callers hold c.mu.
func (c *Cache) lruPushFront(e *entry) {
	e.lruPrev = nil
	e.lruNext = c.head
	if c.head != nil {
		c.head.lruPrev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// pclint:held — callers hold c.mu.
func (c *Cache) lruRemove(e *entry) {
	if e.lruPrev != nil {
		e.lruPrev.lruNext = e.lruNext
	} else {
		c.head = e.lruNext
	}
	if e.lruNext != nil {
		e.lruNext.lruPrev = e.lruPrev
	} else {
		c.tail = e.lruPrev
	}
	e.lruPrev, e.lruNext = nil, nil
}

// pclint:held — callers hold c.mu.
func (c *Cache) lruTouch(e *entry) {
	if c.head == e {
		return
	}
	c.lruRemove(e)
	c.lruPushFront(e)
}

func (c *Cache) dropLocked(e *entry) {
	delete(c.entries, e.key)
	c.lruRemove(e)
	c.mem -= e.mem
}

func (c *Cache) evictLocked() {
	if c.cfg.MemBudget <= 0 {
		return
	}
	for c.mem > c.cfg.MemBudget && c.tail != nil {
		c.dropLocked(c.tail)
		c.stats.Evictions++
	}
}

// Best returns the most selective valid entry among the given keys — the
// paper stores entries with and without semi-join filters in the same cache
// and "chooses the most selective matching entry" (§4.4). Stale entries
// encountered on the way are dropped. The miss counter increments only if
// none of the keys hit.
func (c *Cache) Best(keys []string) (Candidates, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for _, k := range keys {
		e, ok := c.entries[k]
		if !ok {
			continue
		}
		if e.stale() {
			c.dropLocked(e)
			c.stats.Invalidations++
			continue
		}
		if best == nil || e.estRows() < best.estRows() {
			best = e
		}
	}
	if best == nil {
		c.stats.Misses++
		return Candidates{}, false
	}
	c.lruTouch(best)
	c.stats.Hits++
	best.hits++
	best.lastHit = time.Now()
	return Candidates{Key: best.key, EstRows: best.estRows(), Kind: best.kind,
		slices: best.slices, rowsPerBlock: c.cfg.RowsPerBlock}, true
}

// Insert records a freshly scanned expression: perSlice holds the precise
// qualifying row ranges of every slice (ascending, non-overlapping) and
// watermarks the number of rows scanned per slice. epoch is the table's
// layout epoch observed when the scan started — callers capture it before
// taking the scan lock so that a vacuum racing the scan conservatively
// invalidates the entry rather than mislabelling it. deps lists semi-join
// build-side dependencies (nil for plain filters). The cache keeps a copy of
// the ranges, never perSlice's slices.
func (c *Cache) Insert(key Key, tbl *storage.Table, epoch uint64, deps []BuildDep, perSlice [][]storage.RowRange, watermarks []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ks := key.String()
	// Cost-based admission: defer until the key proves repetitive, and
	// refuse unselective predicates outright.
	if c.cfg.AdmitAfter > 1 {
		c.observed[ks]++
		if c.observed[ks] < c.cfg.AdmitAfter {
			c.stats.AdmissionDeferred++
			return
		}
	}
	if c.cfg.MaxSelectivity > 0 {
		covered, scanned := 0, 0
		for i, ranges := range perSlice {
			covered += storage.RangesRowCount(ranges)
			scanned += watermarks[i]
		}
		if scanned > 0 && float64(covered)/float64(scanned) > c.cfg.MaxSelectivity {
			c.stats.AdmissionRejected++
			return
		}
	}
	if old, ok := c.entries[ks]; ok {
		c.dropLocked(old)
	}
	e := &entry{
		key:         ks,
		table:       tbl,
		layoutEpoch: epoch,
		deps:        deps,
		kind:        c.cfg.Kind,
		slices:      make([]*sliceEntry, len(perSlice)),
		createdAt:   time.Now(),
	}
	states := make([]sliceEntry, len(perSlice)) // one allocation for all slices
	for i, ranges := range perSlice {
		storage.AssertRowRanges(ranges, watermarks[i], "core.Cache.Insert")
		se := &states[i]
		e.slices[i] = se
		se.watermark = watermarks[i]
		if c.cfg.Kind == RangeIndex {
			se.ranges = reduceRanges(ranges, c.cfg.MaxRanges)
			se.estRows = storage.RangesRowCount(se.ranges)
		} else {
			numBlocks := (watermarks[i] + c.cfg.RowsPerBlock - 1) / c.cfg.RowsPerBlock
			se.bitmap = make([]uint64, (numBlocks+63)/64)
			for _, r := range ranges {
				bitmapSet(se.bitmap, r.Start, r.End, c.cfg.RowsPerBlock)
			}
			se.estRows, _ = bitmapCount(se.bitmap, c.cfg.RowsPerBlock, se.watermark)
		}
	}
	e.mem = e.memBytes()
	c.entries[ks] = e
	c.lruPushFront(e)
	c.mem += e.mem
	c.stats.Inserts++
	c.evictLocked()
	c.assertMemLocked("Insert")
}

// Extend merges tail ranges — qualifying rows found beyond a slice's
// watermark after new data was appended — into an existing entry and
// advances the watermark (§4.3.1: "we can then add the new row ranges to
// the predicate cache to keep it up-to-date"). It is a no-op if the entry
// has disappeared or turned stale. Like Insert, it copies tailRanges.
func (c *Cache) Extend(key string, slice int, tailRanges []storage.RowRange, newWatermark int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || slice >= len(e.slices) {
		return
	}
	if e.stale() {
		c.dropLocked(e)
		c.stats.Invalidations++
		return
	}
	if newWatermark <= e.slices[slice].watermark {
		return
	}
	storage.AssertRowRanges(tailRanges, newWatermark, "core.Cache.Extend")
	// Copy on write: hits served earlier hold e.slices and the states it
	// points to, and read them without c.mu. Only the extended slice's
	// state is copied; the others are shared with the old version.
	ses := append([]*sliceEntry(nil), e.slices...)
	se := new(sliceEntry)
	*se = *e.slices[slice]
	ses[slice] = se
	c.mem -= e.mem
	if e.kind == RangeIndex {
		merged := append(append([]storage.RowRange(nil), se.ranges...), tailRanges...)
		se.ranges = reduceRanges(merged, c.cfg.MaxRanges)
		se.estRows = storage.RangesRowCount(se.ranges)
	} else {
		numBlocks := (newWatermark + c.cfg.RowsPerBlock - 1) / c.cfg.RowsPerBlock
		bm := make([]uint64, max((numBlocks+63)/64, len(se.bitmap)))
		copy(bm, se.bitmap)
		for _, r := range tailRanges {
			bitmapSet(bm, r.Start, r.End, c.cfg.RowsPerBlock)
		}
		se.bitmap = bm
		se.estRows, _ = bitmapCount(bm, c.cfg.RowsPerBlock, newWatermark)
	}
	se.watermark = newWatermark
	e.slices = ses
	e.mem = e.memBytes()
	c.mem += e.mem
	c.stats.Extends++
	c.evictLocked()
	c.assertMemLocked("Extend")
}

// InvalidateTable drops every entry scanning the given table (used on
// vacuum when eager invalidation is preferred; lazy validation in Lookup
// catches the same cases).
func (c *Cache) InvalidateTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.table.Name() == name {
			c.dropLocked(e)
			c.stats.Invalidations++
		}
	}
	c.assertMemLocked("InvalidateTable")
}

// EntryMemBytes returns the memory of a single entry by key (0 if absent);
// used by the Table 3 memory benchmark.
func (c *Cache) EntryMemBytes(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e.mem
	}
	return 0
}

// EntrySummary describes one cached entry for introspection (the pcsh
// \entries command and the pc.cache_entries system table).
type EntrySummary struct {
	Key      string
	Table    string
	Kind     EntryKind
	EstRows  int
	MemBytes int
	SemiJoin bool
	// Hits counts lookups this entry served; CreatedAt/LastHit timestamp its
	// life (LastHit is zero until the first hit).
	Hits      int64
	CreatedAt time.Time
	LastHit   time.Time
	// Slices is the number of data slices covered; Ranges the total number of
	// qualifying row ranges the entry materializes across them.
	Slices int
	Ranges int
	// Epoch is the table layout epoch the entry was built against.
	Epoch uint64
}

// Entries returns summaries of all cached entries in LRU order (most recent
// first).
func (c *Cache) Entries() []EntrySummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []EntrySummary
	for e := c.head; e != nil; e = e.lruNext {
		ranges := 0
		for _, se := range e.slices {
			if e.kind == RangeIndex {
				ranges += len(se.ranges)
			} else {
				_, runs := bitmapCount(se.bitmap, c.cfg.RowsPerBlock, se.watermark)
				ranges += runs
			}
		}
		out = append(out, EntrySummary{
			Key:       e.key,
			Table:     e.table.Name(),
			Kind:      e.kind,
			EstRows:   e.estRows(),
			MemBytes:  e.mem,
			SemiJoin:  len(e.deps) > 0,
			Hits:      e.hits,
			CreatedAt: e.createdAt,
			LastHit:   e.lastHit,
			Slices:    len(e.slices),
			Ranges:    ranges,
			Epoch:     e.layoutEpoch,
		})
	}
	return out
}

// Has reports whether a fresh entry exists for key without materializing
// candidates or touching hit/miss counters. Scans use it to avoid
// re-inserting an entry that is already current.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && !e.stale()
}
