package sql

import (
	"container/list"
	"sync"
	"time"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/storage"
)

// PlanCache is an LRU cache of parsed-and-planned SELECT templates keyed on
// normalized SQL (Normalize). A hit skips lexing, parsing and planning
// entirely: the cached template — a plan tree whose literal Values carry bind
// slots — is deep-cloned with the current query's literals substituted in.
//
// Invalidation is version-based rather than notification-based: each entry
// records, per referenced table, the DML version and vacuum layout epoch
// observed at plan time, plus the database-wide DDL generation. A lookup
// whose current versions differ drops the entry and replans — so plans never
// outlive a CREATE TABLE, data change, or vacuum that could have changed
// what the planner would produce (join order heuristics read table
// statistics). Plans over virtual (pc.*) tables or materialized inputs are
// never cached.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	lru     *list.List // front = most recent; values are *planEntry

	hits          int64
	misses        int64
	bypasses      int64
	invalidations int64
	evictions     int64
}

type planEntry struct {
	key     string
	node    engine.Node // template, slot-tagged; immutable but for its grouped Aggs' atomic group counts
	nslots  int
	deps    []planDep
	ddlGen  uint64
	hits    int64
	created time.Time
	lastHit time.Time
	elem    *list.Element
}

type planDep struct {
	table   string
	version uint64
	epoch   uint64
}

// DefaultPlanCacheCapacity bounds the cache when the caller does not choose.
const DefaultPlanCacheCapacity = 256

// NewPlanCache returns a plan cache holding at most capacity templates
// (<= 0 selects DefaultPlanCacheCapacity).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[string]*planEntry),
		lru:     list.New(),
	}
}

// Get returns a ready-to-execute plan for nq when a valid template is
// cached: the template cloned with nq's literals bound into its slots.
func (pc *PlanCache) Get(nq *NormalizedQuery, cat *storage.Catalog, ddlGen uint64) (engine.Node, bool) {
	if pc == nil || nq == nil {
		return nil, false
	}
	pc.mu.Lock()
	e, ok := pc.entries[nq.Key]
	if !ok {
		pc.misses++
		pc.mu.Unlock()
		return nil, false
	}
	if e.ddlGen != ddlGen || e.nslots != len(nq.Args) || !depsCurrent(e.deps, cat) {
		pc.removeLocked(e)
		pc.invalidations++
		pc.misses++
		pc.mu.Unlock()
		return nil, false
	}
	e.hits++
	e.lastHit = time.Now()
	pc.hits++
	pc.lru.MoveToFront(e.elem)
	tmpl := e.node
	pc.mu.Unlock()

	// Clone outside the lock: the template is immutable, and cloning walks
	// the whole tree. The one thing written after Put is each grouped
	// Agg's group count, an atomic.Int64 the clone shares and each of its
	// runs stores into (engine.ClonePlan).
	node, ok := engine.ClonePlan(tmpl, func(v expr.Value) expr.Value {
		if v.Slot >= 1 && v.Slot <= len(nq.Args) {
			arg := nq.Args[v.Slot-1]
			arg.Slot = v.Slot
			return arg
		}
		return v
	})
	if !ok {
		// Cannot happen for a template Put accepted; fail safe to a replan.
		return nil, false
	}
	return node, true
}

// Put caches node as the template for nq. The node must be freshly planned
// from nq's slot-tagged parse; Put verifies that the plan carries exactly
// the slots 1..len(Args) (each at least once — the planner may duplicate a
// factored predicate into several scans) and refuses to cache otherwise, so
// a literal that went structurally into the plan (constant folding, rewrite)
// can never be rebound incorrectly. The stored template is a detached clone:
// the caller's node is about to be executed, and execution mutates scans
// transiently (semi-join pushdown). Cloning gives the caller's grouped Agg
// nodes their group-count cells and shares them with the template, so the first
// run already sizes the next one's tables.
func (pc *PlanCache) Put(nq *NormalizedQuery, node engine.Node, cat *storage.Catalog, ddlGen uint64) {
	if pc == nil || nq == nil || node == nil {
		return
	}
	var slots []int
	if !engine.PlanSlots(node, &slots) {
		pc.bypass()
		return
	}
	seen := make([]bool, len(nq.Args))
	for _, s := range slots {
		if s < 1 || s > len(nq.Args) {
			pc.bypass()
			return
		}
		seen[s-1] = true
	}
	for _, s := range seen {
		if !s {
			// A slotted literal did not survive into the plan verbatim; a
			// later rebind could not reach it. Don't cache this shape.
			pc.bypass()
			return
		}
	}
	tmpl, ok := engine.ClonePlan(node, func(v expr.Value) expr.Value { return v })
	if !ok {
		pc.bypass()
		return
	}
	tables := engine.PlanTables(node)
	deps := make([]planDep, 0, len(tables))
	for _, t := range tables {
		tbl, ok := cat.Table(t)
		if !ok {
			pc.bypass()
			return
		}
		deps = append(deps, planDep{table: t, version: tbl.Version(), epoch: tbl.LayoutEpoch()})
	}

	e := &planEntry{
		key:     nq.Key,
		node:    tmpl,
		nslots:  len(nq.Args),
		deps:    deps,
		ddlGen:  ddlGen,
		created: time.Now(),
	}
	pc.mu.Lock()
	if old, ok := pc.entries[nq.Key]; ok {
		pc.removeLocked(old)
	}
	e.elem = pc.lru.PushFront(e)
	pc.entries[nq.Key] = e
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		pc.removeLocked(back.Value.(*planEntry))
		pc.evictions++
	}
	pc.mu.Unlock()
}

func (pc *PlanCache) bypass() {
	pc.mu.Lock()
	pc.bypasses++
	pc.mu.Unlock()
}

func (pc *PlanCache) removeLocked(e *planEntry) {
	delete(pc.entries, e.key)
	pc.lru.Remove(e.elem)
}

func depsCurrent(deps []planDep, cat *storage.Catalog) bool {
	for _, d := range deps {
		tbl, ok := cat.Table(d.table)
		if !ok || tbl.Version() != d.version || tbl.LayoutEpoch() != d.epoch {
			return false
		}
	}
	return true
}

// PlanCacheStats is a snapshot of the cache's counters.
type PlanCacheStats struct {
	Entries       int
	Capacity      int
	Hits          int64
	Misses        int64
	Bypasses      int64
	Invalidations int64
	Evictions     int64
}

// Stats returns a counter snapshot. Safe on a nil cache.
func (pc *PlanCache) Stats() PlanCacheStats {
	if pc == nil {
		return PlanCacheStats{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Entries:       len(pc.entries),
		Capacity:      pc.cap,
		Hits:          pc.hits,
		Misses:        pc.misses,
		Bypasses:      pc.bypasses,
		Invalidations: pc.invalidations,
		Evictions:     pc.evictions,
	}
}

// PlanCacheEntry describes one cached template for introspection
// (pc.plan_cache).
type PlanCacheEntry struct {
	Key       string
	Slots     int
	Tables    []string
	Hits      int64
	CreatedAt time.Time
	LastHitAt time.Time
}

// Entries lists the cached templates, most recently used first. Safe on a
// nil cache.
func (pc *PlanCache) Entries() []PlanCacheEntry {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]PlanCacheEntry, 0, pc.lru.Len())
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		tables := make([]string, len(e.deps))
		for i, d := range e.deps {
			tables[i] = d.table
		}
		out = append(out, PlanCacheEntry{
			Key:       e.key,
			Slots:     e.nslots,
			Tables:    tables,
			Hits:      e.hits,
			CreatedAt: e.created,
			LastHitAt: e.lastHit,
		})
	}
	return out
}
