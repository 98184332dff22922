package predcache

import (
	"io"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
)

// Catalog exposes the underlying catalog (used by the benchmark harness and
// workload generators inside this module).
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// PredicateCache exposes the cache for stats and configuration; nil when
// disabled.
func (db *DB) PredicateCache() *core.Cache { return db.cache }

// Plan parses and plans a SELECT without executing it. System tables (pc.*)
// resolve the same way they do in Query.
func (db *DB) Plan(query string) (engine.Node, error) {
	return sql.PlanSQLWith(query, db.cat, db.sysTables)
}

// LastQueryStats returns the scan counters of the most recent Query/Run.
func (db *DB) LastQueryStats() QueryStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.last
}

// CacheStats returns predicate-cache counters (zero value when disabled).
func (db *DB) CacheStats() CacheStats {
	if db.cache == nil {
		return CacheStats{}
	}
	return db.cache.Stats()
}

// TableRows returns a table's physical row count.
func (db *DB) TableRows(table string) int {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return 0
	}
	return tbl.NumRows()
}

// ParseWhere parses a standalone filter condition (the text that would
// follow WHERE) into a predicate usable with DeleteWhere and UpdateWhere.
func ParseWhere(cond string) (Pred, error) { return sql.ParsePredicate(cond) }

// Explain renders the plan for a query as indented text.
func (db *DB) Explain(query string) (string, error) {
	node, err := sql.PlanSQLWith(query, db.cat, db.sysTables)
	if err != nil {
		return "", err
	}
	return engine.Explain(node), nil
}

// CacheEntries lists the predicate-cache entries, most recently used first.
func (db *DB) CacheEntries() []core.EntrySummary {
	if db.cache == nil {
		return nil
	}
	return db.cache.Entries()
}

// Plan-cache introspection types (see PlanCacheStats / PlanCacheEntries).
type (
	// PlanCacheStats reports normalized-SQL plan-cache counters.
	PlanCacheStats = sql.PlanCacheStats
	// PlanCacheEntry describes one cached plan template.
	PlanCacheEntry = sql.PlanCacheEntry
)

// PlanCacheStats returns plan-cache counters (zero value when the cache is
// disabled via WithoutPlanCache).
func (db *DB) PlanCacheStats() PlanCacheStats {
	return db.plans.Stats()
}

// PlanCacheEntries lists the cached plan templates, most recently used first
// (nil when the cache is disabled). Also queryable as pc.plan_cache.
func (db *DB) PlanCacheEntries() []PlanCacheEntry {
	return db.plans.Entries()
}

// QueryLog returns the retained query history, oldest first (nil when
// recording is disabled). The same rows are queryable as pc.query_log.
func (db *DB) QueryLog() []QueryRecord {
	return db.qlog.Records()
}

// DumpQueryLog streams the retained query history to w as JSON lines,
// oldest first (a no-op when recording is disabled).
func (db *DB) DumpQueryLog(w io.Writer) error {
	return db.qlog.WriteJSONL(w)
}

// SystemTableNames lists the registered pc.* system tables, sorted.
func (db *DB) SystemTableNames() []string {
	return db.sysTables.Names()
}
