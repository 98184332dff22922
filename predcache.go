// Package predcache is a single-node analytical database engine with
// predicate caching: a query-driven secondary index that remembers, per scan
// expression, which row ranges qualified — so repeating scans touch only the
// data that mattered last time (Schmidt et al., "Predicate Caching:
// Query-Driven Secondary Indexing for Cloud Data Warehouses", SIGMOD 2024).
//
// The engine stores tables in compressed columnar blocks with zone maps,
// executes SQL with vectorized scans, hash joins with semi-join-filter
// pushdown, and hash aggregation, and keeps the predicate cache online
// across inserts, deletes and updates.
//
// Quick start:
//
//	db := predcache.Open()
//	db.CreateTable("t", predcache.Schema{{Name: "x", Type: predcache.Int64}})
//	// load data with db.Insert, then:
//	res, err := db.Query("select count(*) from t where x > 42")
package predcache

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/expr"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/sql"
	"github.com/predcache/predcache/internal/storage"
	"github.com/predcache/predcache/internal/systab"
)

// Re-exported storage types: the public surface of table definitions.
type (
	// Schema describes a table's columns.
	Schema = storage.Schema
	// ColumnDef is one column definition.
	ColumnDef = storage.ColumnDef
	// ColumnType enumerates column types.
	ColumnType = storage.ColumnType
	// Batch is a columnar batch of rows for loading.
	Batch = storage.Batch
	// Result is a materialized query result.
	Result = engine.Relation
	// CacheConfig configures the predicate cache.
	CacheConfig = core.Config
	// CacheStats reports predicate-cache counters.
	CacheStats = core.Stats
	// QueryStats reports per-query scan counters.
	QueryStats = storage.ScanStatsSnapshot
	// ExecCtx is the execution context accepted by RunCtx.
	ExecCtx = engine.ExecCtx
	// Metrics is the counter/gauge/histogram registry fed by EnableMetrics.
	Metrics = obs.Metrics
	// Pred is a filter predicate (for DeleteWhere / UpdateWhere).
	Pred = expr.Pred
)

// Column type constants.
const (
	Int64   = storage.Int64
	Float64 = storage.Float64
	Date    = storage.Date
	String  = storage.String
	Bool    = storage.Bool
)

// Predicate-cache entry kinds.
const (
	RangeIndex  = core.RangeIndex
	BitmapIndex = core.BitmapIndex
)

// NewBatch allocates an empty batch shaped like schema.
func NewBatch(schema Schema) *Batch { return storage.NewBatch(schema) }

// DB is an embedded analytical database with a predicate cache.
type DB struct {
	mu sync.Mutex
	// cat, cache, slices and maxWorkers are immutable after Open.
	cat        *storage.Catalog
	cache      *core.Cache
	slices     int
	maxWorkers int
	last       storage.ScanStatsSnapshot // guarded by mu

	// seq numbers statements: taken once at statement start, it is the id
	// every sink knows the statement by (pc.query_log.seq, pc.traces.trace_id,
	// SLO and shape exemplars, the query_id pprof label).
	seq atomic.Int64

	// metrics is nil until EnableMetrics installs the registered instruments;
	// queries load it once per execution.
	metrics atomic.Pointer[queryMetrics]

	// metricsReg remembers the registry EnableMetrics was called with so
	// pc.metrics can snapshot it.
	metricsReg atomic.Pointer[obs.Metrics]

	// sysTables resolves pc.* references; qlog is the always-on query
	// history behind pc.query_log (nil when disabled). Both are immutable
	// after Open; qlogCap only carries its option value into Open. slowQuery
	// is the one slow threshold: emit's caller compares the statement's wall
	// time against it once and every sink reads the resulting flag.
	sysTables *systab.Registry
	qlog      *systab.QueryRecorder
	qlogCap   int
	slowQuery time.Duration

	// traces tail-samples completed query traces (pc.traces, pc.trace_spans)
	// and slo aggregates latency histograms per query class (pc.slo). Both
	// immutable after Open; traceCfg only carries its option value into Open.
	traces   *obs.TraceStore
	slo      *obs.SLOSet
	traceCfg obs.TraceStoreConfig

	// shapes is the per-shape resource ledger behind pc.query_shapes and
	// alerts the leak-sentinel transition ring behind pc.alerts. Both are
	// immutable after Open.
	shapes *obs.ShapeStats
	alerts *obs.AlertLog

	// logger receives structured slow-query, error and lifecycle lines; nil
	// drops everything. Immutable after Open.
	logger *slog.Logger

	// runtime is the optional health sampler behind pc.runtime, installed by
	// StartRuntimeSampler.
	runtime atomic.Pointer[obs.RuntimeCollector]

	// plans caches parsed-and-planned SELECT templates keyed on normalized
	// SQL (nil when disabled); immutable after Open. planCacheOff only
	// carries its option value into Open.
	plans        *sql.PlanCache
	planCacheOff bool

	// ddlGen counts schema changes; cached plans record the generation they
	// were planned under and are dropped wholesale after any CREATE TABLE
	// (new tables can change name resolution and join choices).
	ddlGen atomic.Uint64
}

// Open creates an empty in-memory database.
func Open(opts ...Option) *DB {
	db := &DB{
		cat:       storage.NewCatalog(),
		cache:     core.NewCache(core.DefaultConfig()),
		slices:    4,
		qlogCap:   DefaultQueryLogCapacity,
		slowQuery: DefaultSlowQueryThreshold,
	}
	for _, o := range opts {
		o(db)
	}
	// The system schema binds to whatever cache/recorder configuration the
	// options settled on, so it is built last.
	db.qlog = systab.NewQueryRecorder(db.qlogCap)
	db.traces = obs.NewTraceStore(db.traceCfg)
	db.slo = obs.NewSLOSet()
	if !db.planCacheOff {
		db.plans = sql.NewPlanCache(0)
	}
	db.shapes = obs.NewShapeStats(0)
	db.alerts = obs.NewAlertLog(0)
	db.sysTables = systab.NewRegistry()
	for _, vt := range []engine.VirtualTable{
		systab.QueryLogTable(db.qlog),
		systab.PlanCacheTable(db.plans),
		systab.CacheEntriesTable(db.cache),
		systab.CacheStatsTable(db.cache),
		systab.TableStorageTable(db.cat),
		systab.MetricsTable(db.metricsReg.Load),
		systab.TracesTable(db.traces),
		systab.TraceSpansTable(db.traces),
		systab.SLOTable(db.slo),
		systab.RuntimeTable(db.runtime.Load, func() obs.RuntimeSample {
			return obs.ReadRuntimeSample(engine.ScratchPoolStats)
		}),
		systab.QueryShapesTable(db.shapes),
		systab.AlertsTable(db.alerts),
	} {
		if err := db.sysTables.Register(vt); err != nil {
			// Names are compile-time constants; a clash is a programming error.
			panic(err)
		}
	}
	return db
}
