package predcache

import (
	"log/slog"
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/obs"
)

// Option configures Open.
type Option func(*DB)

// WithCacheConfig selects the predicate-cache configuration (entry kind,
// ranges per entry, bitmap granularity, memory budget).
func WithCacheConfig(cfg CacheConfig) Option {
	return func(db *DB) { db.cache = core.NewCache(cfg) }
}

// WithoutPredicateCache disables the predicate cache entirely.
func WithoutPredicateCache() Option {
	return func(db *DB) { db.cache = nil }
}

// WithSlices sets the number of data slices per table (default 4).
func WithSlices(n int) Option {
	return func(db *DB) { db.slices = n }
}

// WithMaxWorkers sets the degree of parallelism of one query: the most
// workers any operator (scans, join build/probe, aggregation) runs at once.
// Zero — the default — means GOMAXPROCS; 1 runs every query serially.
func WithMaxWorkers(n int) Option {
	return func(db *DB) { db.maxWorkers = n }
}

// WithParallelScans(false) is WithMaxWorkers(1); WithParallelScans(true) does
// nothing. It remains only because benchmark/workloads.go calls it and
// benchmark/ changes only in benchmark PRs; the next one removes it.
func WithParallelScans(v bool) Option {
	if !v {
		return WithMaxWorkers(1)
	}
	return func(*DB) {}
}

// WithoutPlanCache disables the normalized-SQL plan cache: every Query
// parses and plans from scratch (ablation and debugging).
func WithoutPlanCache() Option {
	return func(db *DB) { db.planCacheOff = true }
}

// DefaultQueryLogCapacity is the number of recent queries the history
// retains unless WithQueryLogCapacity overrides it. At ~300 bytes per
// record the default costs a fixed ~300 KiB per database.
const DefaultQueryLogCapacity = 1024

// WithQueryLogCapacity sets how many recent queries pc.query_log retains
// (default DefaultQueryLogCapacity). n <= 0 disables query recording:
// pc.query_log stays empty; every other sink still sees every statement,
// under the same sequence numbers.
func WithQueryLogCapacity(n int) Option {
	return func(db *DB) { db.qlogCap = n }
}

// DefaultSlowQueryThreshold flags queries at or above this wall time as
// slow.
const DefaultSlowQueryThreshold = time.Second

// WithSlowQueryThreshold sets the wall time at which a statement is slow
// (default DefaultSlowQueryThreshold; d <= 0 flags none). It is the one slow
// threshold: pc.query_log.slow, always-retained traces (reason "slow") and
// the "slow query" log line all follow it.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(db *DB) { db.slowQuery = d }
}

// TraceRetentionConfig bounds the trace tail-sampler: total span budget and
// per-shape head-sample quota.
type TraceRetentionConfig = obs.TraceStoreConfig

// WithTraceRetention overrides the trace store's retention bounds (zero
// fields keep their defaults).
func WithTraceRetention(cfg TraceRetentionConfig) Option {
	return func(db *DB) { db.traceCfg = cfg }
}

// WithLogger installs the structured logger the engine writes slow-query,
// failure and lifecycle lines to (nil, the default, drops them). Every line
// that concerns a query carries query_id and trace_id (the same value), so a
// log line is one SQL filter away from its retained trace:
//
//	SELECT * FROM pc.trace_spans WHERE trace_id = 17
func WithLogger(l *slog.Logger) Option {
	return func(db *DB) { db.logger = l }
}
