package predcache

import (
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
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

// PlanCacheStats reports normalized-SQL plan-cache counters.
type PlanCacheStats = sql.PlanCacheStats

// PlanCacheStats returns plan-cache counters (zero value when the cache is
// disabled via WithoutPlanCache).
func (db *DB) PlanCacheStats() PlanCacheStats {
	return db.plans.Stats()
}

// StartRuntimeSampler begins sampling process health (goroutines, heap, RSS,
// GC pauses, scan-scratch pool efficiency) every interval (<= 0 selects
// obs.DefaultRuntimeInterval) into the bounded ring behind pc.runtime. It
// replaces and stops any previous sampler; call StopRuntimeSampler to halt.
// The leak sentinels (pc.alerts) piggyback on the sampling cadence: each
// retained sample is evaluated against the goroutine-growth, heap-growth and
// pool-churn watchdogs at their default thresholds.
func (db *DB) StartRuntimeSampler(interval time.Duration) {
	// The sampler reads the engine's scan-scratch pool counters with every
	// sample, so pool-efficiency regressions show up in pc.runtime.
	sent := obs.NewSentinels(obs.SentinelConfig{}, db.alerts, db.logger)
	old := db.runtime.Swap(obs.StartRuntimeCollector(interval, engine.ScratchPoolStats, sent))
	old.Stop()
}

// StopRuntimeSampler halts the health sampler, waiting for its goroutine to
// exit. The retained samples remain queryable via pc.runtime. Safe to call
// repeatedly and without a prior Start: Stop on a nil or already-stopped
// collector is a no-op.
func (db *DB) StopRuntimeSampler() {
	// Keep the stopped collector loaded (Load, not Swap(nil)): its ring is
	// what pc.runtime serves after the sampler halts. A concurrent Start
	// cannot leak a collector either way — Start's Swap stops whichever
	// collector it displaces.
	db.runtime.Load().Stop()
}
