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
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
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
	// cat, cache, slices, parallel and maxWorkers are immutable after Open.
	cat        *storage.Catalog
	cache      *core.Cache
	slices     int
	parallel   bool
	maxWorkers int
	last     storage.ScanStatsSnapshot // guarded by mu

	// metrics is nil until EnableMetrics installs the registered instruments;
	// queries load it once per execution.
	metrics atomic.Pointer[queryMetrics]

	// metricsReg remembers the registry EnableMetrics was called with so
	// pc.metrics can snapshot it.
	metricsReg atomic.Pointer[obs.Metrics]

	// sysTables resolves pc.* references; qlog is the always-on query
	// history behind pc.query_log (nil when disabled). Both are immutable
	// after Open; qlogCap and slowQuery only carry option values into Open.
	sysTables *systab.Registry
	qlog      *systab.QueryRecorder
	qlogCap   int
	slowQuery time.Duration

	// traces tail-samples completed query traces (pc.traces, pc.trace_spans)
	// and slo aggregates latency histograms per query class (pc.slo). Both
	// immutable after Open; traces is nil when WithoutTraces disabled it.
	// traceCfg and tracesOff only carry option values into Open.
	traces    *obs.TraceStore
	slo       *obs.SLOSet
	traceCfg  obs.TraceStoreConfig
	tracesOff bool

	// shapes is the per-shape resource ledger behind pc.query_shapes and
	// alerts the leak-sentinel transition ring behind pc.alerts. Both are
	// immutable after Open; shapeCap and sentinelCfg only carry option values
	// into Open (sentinelCfg is also read by StartRuntimeSampler).
	shapes      *obs.ShapeStats
	alerts      *obs.AlertLog
	shapeCap    int
	sentinelCfg obs.SentinelConfig

	// captor writes rate-limited CPU profiles on slow queries when
	// WithProfileCapture configured a directory; nil otherwise. profileDir
	// only carries the option value into Open.
	captor     *obs.ProfileCaptor
	profileDir string

	// logger receives structured slow-query, error and lifecycle lines; nil
	// drops everything. Swappable at runtime via SetLogger.
	logger atomic.Pointer[obs.Logger]

	// runtime is the optional health sampler behind pc.runtime, installed by
	// StartRuntimeSampler.
	runtime atomic.Pointer[obs.RuntimeCollector]

	// plans caches parsed-and-planned SELECT templates keyed on normalized
	// SQL (nil when disabled); immutable after Open. planCacheCap and
	// planCacheOff only carry option values into Open.
	plans        *sql.PlanCache
	planCacheCap int
	planCacheOff bool

	// ddlGen counts schema changes; cached plans record the generation they
	// were planned under and are dropped wholesale after any CREATE TABLE
	// (new tables can change name resolution and join choices).
	ddlGen atomic.Uint64
}

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

// WithParallelScans toggles per-slice scan goroutines and morsel-parallel
// join/aggregation execution (default on).
func WithParallelScans(v bool) Option {
	return func(db *DB) { db.parallel = v }
}

// WithMaxWorkers caps the worker goroutines a morsel-parallel operator
// (join build/probe, aggregation) may use per query. Zero — the default —
// means GOMAXPROCS.
func WithMaxWorkers(n int) Option {
	return func(db *DB) { db.maxWorkers = n }
}

// WithMetrics registers the database's instruments on m at Open (see
// EnableMetrics). Pass it after any cache-configuration options so the cache
// counters bind to the cache the database actually uses.
func WithMetrics(m *obs.Metrics) Option {
	return func(db *DB) { db.EnableMetrics(m) }
}

// TraceRetentionConfig bounds the trace tail-sampler: total span budget,
// per-shape head-sample quota, and the slow threshold at which traces are
// always kept (defaulting to the slow-query threshold).
type TraceRetentionConfig = obs.TraceStoreConfig

// WithTraceRetention overrides the trace store's retention bounds (zero
// fields keep their defaults).
func WithTraceRetention(cfg TraceRetentionConfig) Option {
	return func(db *DB) { db.traceCfg = cfg }
}

// WithoutTraces disables trace collection and retention: Query skips span
// recording entirely and pc.traces / pc.trace_spans stay empty. pc.slo keeps
// aggregating (histograms are allocation-free) but carries no exemplars.
func WithoutTraces() Option {
	return func(db *DB) { db.tracesOff = true }
}

// WithLogger installs a structured logger at Open (see SetLogger).
func WithLogger(l *obs.Logger) Option {
	return func(db *DB) { db.SetLogger(l) }
}

// WithPlanCacheCapacity bounds the normalized-SQL plan cache to n templates
// (0 keeps the default, sql.DefaultPlanCacheCapacity).
func WithPlanCacheCapacity(n int) Option {
	return func(db *DB) { db.planCacheCap = n }
}

// WithoutPlanCache disables the normalized-SQL plan cache: every Query
// parses and plans from scratch (ablation and debugging).
func WithoutPlanCache() Option {
	return func(db *DB) { db.planCacheOff = true }
}

// Open creates an empty in-memory database.
func Open(opts ...Option) *DB {
	db := &DB{
		cat:       storage.NewCatalog(),
		cache:     core.NewCache(core.DefaultConfig()),
		slices:    4,
		parallel:  true,
		qlogCap:   DefaultQueryLogCapacity,
		slowQuery: DefaultSlowQueryThreshold,
	}
	for _, o := range opts {
		o(db)
	}
	// The system schema binds to whatever cache/recorder configuration the
	// options settled on, so it is built last.
	db.qlog = systab.NewQueryRecorder(db.qlogCap, db.slowQuery)
	if !db.tracesOff {
		if db.traceCfg.Slow <= 0 {
			// The trace store's "always keep" criterion defaults to the query
			// log's slow flag, so the two telemetry layers agree on slow.
			db.traceCfg.Slow = db.slowQuery
		}
		db.traces = obs.NewTraceStore(db.traceCfg)
	}
	db.slo = obs.NewSLOSet()
	if m := db.metricsReg.Load(); m != nil {
		// WithMetrics ran before the observability layer existed; register
		// its instruments now (the sampler gauges were registered already —
		// they read through db.runtime and need no catch-up).
		db.slo.RegisterMetrics(m)
		db.traces.RegisterMetrics(m)
	}
	if !db.planCacheOff {
		db.plans = sql.NewPlanCache(db.planCacheCap)
	}
	db.shapes = obs.NewShapeStats(db.shapeCap)
	db.alerts = obs.NewAlertLog(0)
	if db.profileDir != "" {
		captor, err := obs.NewProfileCaptor(obs.ProfileCaptorConfig{
			Dir:    db.profileDir,
			Logger: db.logger.Load,
		})
		if err != nil {
			// Capture is best-effort telemetry: an unwritable directory
			// disables it rather than failing Open.
			db.logger.Load().Error("profile capture disabled", "error", err.Error())
		} else {
			db.captor = captor
		}
	}
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

// Catalog exposes the underlying catalog (used by the benchmark harness and
// workload generators inside this module).
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// PredicateCache exposes the cache for stats and configuration; nil when
// disabled.
func (db *DB) PredicateCache() *core.Cache { return db.cache }

// CreateTable registers a new table. sortKey columns (optional) define the
// physical sort order maintained by Vacuum. Names under the reserved system
// schema ("pc.") are rejected.
func (db *DB) CreateTable(name string, schema Schema, sortKey ...string) error {
	if strings.HasPrefix(name, systab.SchemaPrefix) {
		return fmt.Errorf("predcache: %q is reserved for system tables", systab.SchemaPrefix)
	}
	_, err := db.cat.CreateTable(name, schema, db.slices, sortKey...)
	if err == nil {
		// DDL invalidates every cached plan: a new table can change name
		// resolution and the planner's join choices.
		db.ddlGen.Add(1)
	}
	return err
}

// RegisterSystemTable adds a virtual table under the reserved pc schema
// (the network server registers pc.sessions through this). The name must
// carry the "pc." prefix and not clash with a registered table.
func (db *DB) RegisterSystemTable(vt engine.VirtualTable) error {
	return db.sysTables.Register(vt)
}

// Insert appends a batch of rows.
func (db *DB) Insert(table string, batch *Batch) error {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	return tbl.Append(batch, db.cat.NextXID())
}

// Load sorts the batch by the table's sort key (if any) and appends it; the
// table must be empty. Use for initial bulk loads.
func (db *DB) Load(table string, batch *Batch) error {
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	return tbl.SortedLoad(batch, db.cat.NextXID())
}

// dmlEpochRetries bounds how often DeleteWhere/UpdateWhere re-match rows
// after a concurrent Vacuum renumbered the table between match and mutate.
// After that many lost races the statement takes the table's layout gate
// (blocking further vacuums) and finishes pessimistically, so DML always
// makes progress even against a back-to-back vacuum loop.
const dmlEpochRetries = 4

// DeleteWhere marks all rows matching pred as deleted (out-of-place MVCC
// delete; row numbers do not change, so predicate-cache entries stay valid).
// It returns the number of rows this statement deleted (rows a concurrent
// statement deleted first are not counted twice).
func (db *DB) DeleteWhere(table string, pred Pred) (n int, err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			db.observeDML(start)
		}
	}()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("predcache: unknown table %s", table)
	}
	for attempt := 0; attempt < dmlEpochRetries; attempt++ {
		n, ok, err := db.tryDeleteWhere(tbl, table, pred)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
		// A vacuum renumbered the rows between match and mutate: re-match.
	}
	unlock := tbl.LockLayout() // exclude vacuums: the epoch cannot change now
	defer unlock()
	n, ok, err = db.tryDeleteWhere(tbl, table, pred)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("predcache: delete from %s: table layout changed while the layout gate was held", table)
	}
	return n, nil
}

// tryDeleteWhere runs one optimistic match/mutate attempt. ok reports
// whether the attempt committed; false means a concurrent vacuum renumbered
// the rows in between and the caller should retry.
func (db *DB) tryDeleteWhere(tbl *storage.Table, table string, pred Pred) (int, bool, error) {
	rows, epoch, err := db.matchRows(tbl, pred)
	if err != nil {
		return 0, false, fmt.Errorf("predcache: delete from %s: %w", table, err)
	}
	total := 0
	for _, rs := range rows {
		total += len(rs)
	}
	if total == 0 {
		tbl.BumpVersion() // the statement still invalidates result caches
		return 0, true, nil
	}
	n, ok := tbl.DeleteRowsAtEpoch(rows, db.cat.NextXID(), epoch)
	return n, ok, nil
}

// UpdateWhere implements out-of-place updates (§4.3.3): matching rows are
// deleted and re-inserted with apply() mutating a columnar copy. The delete
// and append commit atomically — a failed append (e.g. apply produced
// mismatched column lengths) leaves the table unchanged. apply may run more
// than once if a concurrent Vacuum forces a re-match; it always receives a
// freshly materialized batch. Returns the number of updated rows.
func (db *DB) UpdateWhere(table string, pred Pred, apply func(b *Batch)) (n int, err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			db.observeDML(start)
		}
	}()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("predcache: unknown table %s", table)
	}
	for attempt := 0; attempt < dmlEpochRetries; attempt++ {
		n, ok, err := db.tryUpdateWhere(tbl, table, pred, apply)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
		// Vacuumed between match and materialize/mutate: re-match.
	}
	unlock := tbl.LockLayout() // exclude vacuums: the epoch cannot change now
	defer unlock()
	n, ok, err = db.tryUpdateWhere(tbl, table, pred, apply)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("predcache: update %s: table layout changed while the layout gate was held", table)
	}
	return n, nil
}

// tryUpdateWhere runs one optimistic match/materialize/mutate attempt. ok
// reports whether the attempt committed; false means a concurrent vacuum
// invalidated the captured row numbers and the caller should retry. A
// non-nil error is terminal (the table is unchanged).
func (db *DB) tryUpdateWhere(tbl *storage.Table, table string, pred Pred, apply func(b *Batch)) (int, bool, error) {
	rows, epoch, err := db.matchRows(tbl, pred)
	if err != nil {
		return 0, false, fmt.Errorf("predcache: update %s: %w", table, err)
	}
	nb, ok := db.materializeRows(tbl, rows, epoch)
	if !ok {
		return 0, false, nil
	}
	if nb.N == 0 {
		tbl.BumpVersion()
		return 0, true, nil
	}
	apply(nb)
	ok, err = tbl.UpdateRowsAtEpoch(rows, nb, db.cat.NextXID(), epoch)
	if err != nil {
		return 0, false, fmt.Errorf("predcache: update %s: %w", table, err)
	}
	return nb.N, ok, nil
}

// materializeRows copies the captured rows into a columnar batch. It
// re-checks the layout epoch under the same read lock as the copy: the row
// numbers in rows are only meaningful at that epoch, and reading them after
// a vacuum would materialize arbitrary other rows' values.
func (db *DB) materializeRows(tbl *storage.Table, rows [][]int, epoch uint64) (*storage.Batch, bool) {
	schema := tbl.Schema()
	nb := storage.NewBatch(schema)
	unlock, cur := tbl.RLockScanEpoch()
	defer unlock()
	if cur != epoch {
		return nil, false
	}
	iScratch := make([]int64, storage.BlockSize)
	fScratch := make([]float64, storage.BlockSize)
	for slice, rs := range rows {
		s := tbl.Slice(slice)
		for _, row := range rs {
			for ci, def := range schema {
				col := s.Column(ci)
				switch def.Type {
				case storage.Float64:
					nb.Cols[ci].Floats = append(nb.Cols[ci].Floats, col.FloatAt(row, fScratch))
				case storage.String:
					nb.Cols[ci].Strings = append(nb.Cols[ci].Strings, tbl.Dict(ci).Value(col.IntAt(row, iScratch)))
				default:
					nb.Cols[ci].Ints = append(nb.Cols[ci].Ints, col.IntAt(row, iScratch))
				}
			}
			nb.N++
		}
	}
	return nb, true
}

// matchRows evaluates pred per slice and returns visible matching physical
// row numbers plus the layout epoch they were captured at. The row numbers
// are only valid while the table's layout epoch still equals the returned
// one; mutate through the AtEpoch table methods.
func (db *DB) matchRows(tbl *storage.Table, pred Pred) ([][]int, uint64, error) {
	if pred == nil {
		pred = expr.TruePred{}
	}
	snapshot := db.cat.Snapshot()
	unlock, epoch := tbl.RLockScanEpoch()
	defer unlock()
	bound, err := expr.Bind(pred, tbl)
	if err != nil {
		return nil, 0, err
	}
	numCols := len(tbl.Schema())
	dicts := make([]*storage.Dict, numCols)
	for i := range dicts {
		dicts[i] = tbl.Dict(i)
	}
	out := make([][]int, tbl.NumSlices())
	needCols := map[int]bool{}
	for _, name := range pred.Columns(nil) {
		needCols[tbl.ColumnIndex(name)] = true
	}
	for si := 0; si < tbl.NumSlices(); si++ {
		s := tbl.Slice(si)
		ctx := expr.NewBlockCtx(numCols, dicts)
		ints := make(map[int][]int64)
		floats := make(map[int][]float64)
		sel := make([]int, storage.BlockSize)
		for blk := 0; blk*storage.BlockSize < s.NumRows(); blk++ {
			base := blk * storage.BlockSize
			n := s.NumRows() - base
			if n > storage.BlockSize {
				n = storage.BlockSize
			}
			ctx.N = n
			for ci := range needCols {
				if tbl.ColumnType(ci) == storage.Float64 {
					if floats[ci] == nil {
						floats[ci] = make([]float64, storage.BlockSize)
					}
					s.Column(ci).ReadFloatBlock(blk, floats[ci])
					ctx.SetFloat(ci, floats[ci])
				} else {
					if ints[ci] == nil {
						ints[ci] = make([]int64, storage.BlockSize)
					}
					s.Column(ci).ReadIntBlock(blk, ints[ci])
					ctx.SetInt(ci, ints[ci])
				}
			}
			sel = sel[:n]
			for i := 0; i < n; i++ {
				sel[i] = i
			}
			matched := bound.Eval(ctx, sel)
			for _, r := range matched {
				row := base + r
				if s.Visible(row, snapshot) {
					out[si] = append(out[si], row)
				}
			}
			sel = sel[:cap(sel)]
		}
	}
	return out, epoch, nil
}

// Vacuum reclaims deleted rows and re-sorts the table; this changes physical
// row numbers and therefore invalidates the table's predicate-cache entries.
func (db *DB) Vacuum(table string) error {
	start := time.Now()
	tbl, ok := db.cat.Table(table)
	if !ok {
		return fmt.Errorf("predcache: unknown table %s", table)
	}
	tbl.Vacuum(db.cat.Snapshot())
	// The new layout epoch makes every entry of the table stale. Lookups
	// would drop them one by one, but an entry whose predicate never comes
	// back is never looked up again and would stay for good.
	if db.cache != nil {
		db.cache.InvalidateTable(table)
	}
	db.observeDML(start)
	db.logger.Load().Info("vacuum",
		"table", table, "wall_us", time.Since(start).Microseconds(),
		"rows", tbl.NumRows())
	return nil
}

// observeDML records one successful mutation statement's wall time under the
// dml SLO class. Error paths (unknown table, bad predicate) deliberately do
// not observe: their sub-microsecond no-op samples would skew the dml
// histograms toward zero. DML statements are not traced (they have no plan
// tree), so the observation carries no retained-trace exemplar.
func (db *DB) observeDML(start time.Time) {
	db.slo.Observe(obs.ClassDML, false, time.Since(start), -1, false)
}

// Query parses, plans and executes a SELECT statement. Statements prefixed
// with EXPLAIN return the plan as a one-column text result; EXPLAIN ANALYZE
// additionally executes the statement and annotates the plan with wall
// times, cardinalities and per-scan cache outcomes.
func (db *DB) Query(query string) (*Result, error) {
	return db.QueryCtx(context.Background(), query)
}

// QueryCtx is Query with cooperative cancellation: when ctx is cancelled the
// executing plan stops at its next check point (every cancelCheckRows rows
// inside scan, join and aggregation loops) and the query returns
// ctx's error. Cancelled executions are recorded in pc.query_log like any
// other failure, and never install partial predicate-cache entries. A ctx
// that can never be cancelled (context.Background) costs nothing: the
// execution context carries no ctx at all and the per-row checks reduce to a
// nil test.
func (db *DB) QueryCtx(ctx context.Context, query string) (*Result, error) {
	if explain, analyze, rest := sql.StripExplain(query); explain {
		var text string
		var err error
		if analyze {
			text, err = db.explainAnalyze(ctx, query, rest)
		} else {
			text, err = db.explainRecorded(query, rest)
		}
		if err != nil {
			return nil, err
		}
		return engine.TextRelation("plan", strings.Split(strings.TrimRight(text, "\n"), "\n")), nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Already cancelled before any work: nothing to record.
			return nil, err
		}
	}
	meta := queryMeta{sql: query, start: time.Now(), session: sessionFromCtx(ctx)}
	if db.traces != nil {
		meta.tr = obs.NewTrace()
	}
	node, err := db.parseAndPlan(&meta, query)
	if err != nil {
		db.recordFailed(meta, err)
		return nil, err
	}
	ec := db.execCtx()
	ec.Trace = meta.tr
	if ctx != nil && ctx.Done() != nil {
		ec.Ctx = ctx
	}
	return db.runInternal(node, ec, meta)
}

// parseAndPlan produces an executable plan for a SELECT, consulting the
// normalized-SQL plan cache first. A hit skips lexing, parsing and planning:
// meta.plan stays zero and meta.parse absorbs only the normalize+clone cost
// (microseconds), which is how plan-cache hits are identified in
// pc.query_log. On a miss the statement is parsed with slot tags so the
// freshly planned tree can be cached as a bind template.
func (db *DB) parseAndPlan(meta *queryMeta, query string) (engine.Node, error) {
	var nq *sql.NormalizedQuery
	var ddlGen uint64
	if db.plans != nil {
		// Load the DDL generation before the lookup: if a CREATE TABLE lands
		// between here and Put, the entry is stored under the old generation
		// and the next lookup discards it.
		ddlGen = db.ddlGen.Load()
		if n, ok := sql.Normalize(query); ok {
			nq = n
			// The normalized key doubles as the query's shape: the same string
			// the plan cache indexes on keys pc.query_shapes and the shape
			// pprof label, so all three layers agree on what "one shape" is.
			meta.shapeKey = n.Key
			csp := meta.tr.Begin(obs.KindPhase, "plan-cache")
			node, hit := db.plans.Get(nq, db.cat, ddlGen)
			csp.End()
			if hit {
				meta.parse = time.Since(meta.start)
				return node, nil
			}
		}
	}
	psp := meta.tr.Begin(obs.KindPhase, "parse")
	var stmt *sql.SelectStmt
	var err error
	if nq != nil {
		stmt, err = sql.ParseNormalized(query, nq.Slots())
	} else {
		stmt, err = sql.Parse(query)
	}
	psp.End()
	meta.parse = time.Since(meta.start)
	if err != nil {
		return nil, err
	}
	planStart := time.Now()
	lsp := meta.tr.Begin(obs.KindPhase, "plan")
	node, err := sql.PlanWith(stmt, db.cat, db.sysTables)
	lsp.End()
	meta.plan = time.Since(planStart)
	if err != nil {
		return nil, err
	}
	if nq != nil {
		db.plans.Put(nq, node, db.cat, ddlGen)
	}
	return node, nil
}

// queryMeta carries front-end context (query text, phase timings, the trace
// being recorded) into the shared execution tail; the zero value describes a
// hand-built plan: no text, no trace, no retention.
type queryMeta struct {
	sql         string
	start       time.Time
	parse, plan time.Duration
	// tr is the query's trace, nil when tracing is off or the plan was
	// hand-built. keepSpans makes the retention handoff copy the spans
	// instead of detaching them (ExplainAnalyze renders the trace afterwards).
	tr        *obs.Trace
	keepSpans bool
	// shapeKey is the normalized-SQL shape (set by parseAndPlan; runInternal
	// falls back to the raw SQL when normalization declined the statement) and
	// session the connection label QueryCtx extracted from the context. seq is
	// the query's pre-reserved pc.query_log sequence number when reserved is
	// set — reserved before execution so the pprof query_id label matches the
	// log row the query will eventually occupy.
	shapeKey string
	session  string
	seq      int64
	reserved bool
}

// recordFailed logs a query that never reached execution (parse or plan
// error) and retains its partial trace: the spans recorded up to the failure
// point are finalized and offered to the store, which always admits errors.
func (db *DB) recordFailed(meta queryMeta, err error) {
	wall := time.Since(meta.start)
	rec := systab.QueryRecord{
		StartMicros: meta.start.UnixMicro(),
		SQL:         meta.sql,
		Error:       err.Error(),
		WallMicros:  wall.Microseconds(),
		ParseMicros: meta.parse.Microseconds(),
		PlanMicros:  meta.plan.Microseconds(),
	}
	seq := db.qlog.Record(rec)
	if meta.tr != nil {
		db.retainTrace(meta, seq, wall, "", "", false, err)
	}
	db.logger.Load().WithQuery(seq).Error("query failed",
		"sql", meta.sql, "wall_us", wall.Microseconds(), "error", err.Error())
}

// execCtx builds the default execution context Run and Query share.
func (db *DB) execCtx() *engine.ExecCtx {
	return &engine.ExecCtx{
		Catalog:    db.cat,
		Cache:      db.cache,
		Snapshot:   db.cat.Snapshot(),
		Stats:      &storage.ScanStats{},
		Parallel:   db.parallel,
		MaxWorkers: db.maxWorkers,
	}
}

// runInternal is the shared execution tail of Query, Run, RunCtx and
// ExplainAnalyze: it times the execution, feeds the registered metrics and
// the query log, saves the stats snapshot behind LastQueryStats, and hands
// back a shallow copy of the result with the per-query counters attached —
// concurrent callers each see their own Result.Stats instead of racing on
// the DB-wide accessor.
func (db *DB) runInternal(node engine.Node, ec *engine.ExecCtx, meta queryMeta) (*Result, error) {
	if meta.start.IsZero() {
		meta.start = time.Now()
	}
	// SQL-originated queries get full resource attribution: pprof labels on
	// the executing goroutines, allocation deltas, and a shape identity.
	// Hand-built plans (Run/RunCtx) skip it — they have no query text to
	// shape-key and the warm-scan allocation budget holds them to the bare
	// execution path (label sets and snapshots both allocate).
	attributed := meta.sql != ""
	var shapeID string
	var before obs.ResourceSnapshot
	if attributed {
		if meta.shapeKey == "" {
			// Normalization declined the statement (or the plan cache is
			// off): the raw SQL is its own shape.
			meta.shapeKey = meta.sql
		}
		shapeID = obs.ShapeID(meta.shapeKey)
		if !meta.reserved {
			// Reserve the query's log sequence number before execution so the
			// pprof query_id label names the pc.query_log row the query will
			// occupy when it completes (-1, never recorded, when logging is
			// disabled).
			meta.seq = db.qlog.Reserve()
			meta.reserved = meta.seq >= 0
		}
		before = obs.TakeResourceSnapshot()
	}
	execStart := time.Now()
	esp := meta.tr.Begin(obs.KindPhase, "execute")
	var rel *engine.Relation
	var err error
	if attributed {
		labelCtx := context.Background()
		if ec.Ctx != nil {
			labelCtx = ec.Ctx
		}
		// pprof.Do tags this goroutine — and, by inheritance, every morsel
		// worker the plan spawns — for the duration of the execution, so CPU
		// samples anywhere in the plan carry the query's identity.
		pprof.Do(labelCtx, pprof.Labels(
			"query_id", queryIDLabel(meta.seq),
			"shape", shapeID,
			"session", meta.session,
		), func(context.Context) {
			rel, err = node.Execute(ec)
		})
	} else {
		rel, err = node.Execute(ec)
	}
	esp.End()
	exec := time.Since(execStart)
	var allocObjects, allocBytes int64
	if attributed {
		allocObjects, allocBytes = obs.TakeResourceSnapshot().Sub(before)
	}
	snap := ec.Stats.Snapshot()
	// Attributed CPU: the coordinator's exec wall already contains every
	// serial phase and its own share of parallel ones; workers add only the
	// busy time beyond the coordinator's wait (see ScanStats.WorkerExtraNanos).
	cpu := exec + time.Duration(snap.WorkerExtraNanos)
	db.metrics.Load().record(exec, snap, err)
	wall := time.Since(meta.start)
	var rows int64
	if err == nil {
		rows = int64(rel.NumRows())
	}
	seq := int64(-1)
	if db.qlog != nil {
		rec := systab.QueryRecord{
			StartMicros:  meta.start.UnixMicro(),
			SQL:          meta.sql,
			WallMicros:   wall.Microseconds(),
			ParseMicros:  meta.parse.Microseconds(),
			PlanMicros:   meta.plan.Microseconds(),
			ExecMicros:   exec.Microseconds(),
			CPUMicros:    cpu.Microseconds(),
			AllocObjects: allocObjects,
			AllocBytes:   allocBytes,
			ShapeID:      shapeID,
			Rows:         rows,
		}
		rec.FillStats(snap)
		if err != nil {
			rec.Error = err.Error()
		}
		if meta.reserved {
			rec.Seq = meta.seq
			seq = db.qlog.RecordReserved(rec)
		} else {
			seq = db.qlog.Record(rec)
		}
	}
	if attributed {
		// SQL-originated queries feed the observability tail: classify, offer
		// the trace for retention, observe the SLO histograms and the shape
		// ledger, log anomalies, capture profiles on slow queries.
		db.observe(node, meta, seq, wall, snap, err, shapeID, cpu, allocObjects, allocBytes, rows)
	}
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.last = snap
	db.mu.Unlock()
	// Shallow copy: node results can be shared (Materialized plans), so the
	// per-query fields must never be written onto the node's relation.
	out := *rel
	out.Stats = snap
	out.Wall = time.Since(meta.start)
	return &out, nil
}

// observe is the post-completion observability tail shared by every
// SQL-originated execution: the query's class and cache outcome update the
// SLO histograms, the finished trace is offered for retention (errored and
// slow queries are always admitted), and anomalies emit one structured log
// line stamped with the query/trace ID.
func (db *DB) observe(node engine.Node, meta queryMeta, seq int64, wall time.Duration, snap storage.ScanStatsSnapshot, execErr error, shapeID string, cpu time.Duration, allocObjects, allocBytes, rows int64) {
	class := engine.Classify(node)
	hit := snap.CacheHits > 0
	retained := false
	if meta.tr != nil {
		retained = db.retainTrace(meta, seq, wall, class, engine.Shape(node), hit, execErr)
	}
	db.slo.Observe(class, hit, wall, seq, retained)
	// The shape ledger receives the same CPUMicros pc.query_log records, so
	// summing cpu_us over pc.query_log by shape_id reproduces
	// pc.query_shapes.cpu_us exactly (while both fit the log's window).
	db.shapes.Observe(obs.ShapeObservation{
		Key:          meta.shapeKey,
		ID:           shapeID,
		Class:        class,
		CPUMicros:    cpu.Microseconds(),
		WallMicros:   wall.Microseconds(),
		AllocObjects: allocObjects,
		AllocBytes:   allocBytes,
		Rows:         rows,
		Hit:          hit,
		Err:          execErr != nil,
		TraceID:      seq,
		Retained:     retained,
	})
	switch {
	case execErr != nil:
		db.logger.Load().WithQuery(seq).Error("query failed",
			"sql", meta.sql, "class", class, "wall_us", wall.Microseconds(),
			"error", execErr.Error())
	case db.slowQuery > 0 && wall >= db.slowQuery:
		db.logger.Load().WithQuery(seq).Warn("slow query",
			"sql", meta.sql, "class", class, "wall_us", wall.Microseconds(),
			"cpu_us", cpu.Microseconds(), "shape_id", shapeID,
			"rows_scanned", snap.RowsScanned, "cache_hits", snap.CacheHits,
			"trace_retained", retained)
		db.captor.MaybeCapture("slow_query", seq)
	}
}

// retainTrace finalizes the query's trace — ending any spans an error path
// left open and stamping the failure message — and offers it to the store,
// reporting whether it was kept. The spans move by pointer (Trace.TakeSpans,
// the O(1) handoff) unless meta.keepSpans asks for a copy because the caller
// still renders the live trace afterwards.
func (db *DB) retainTrace(meta queryMeta, seq int64, wall time.Duration, class, shape string, hit bool, execErr error) bool {
	errMsg := ""
	if execErr != nil {
		errMsg = execErr.Error()
	}
	meta.tr.FinishOpen(errMsg)
	var spans []obs.Span
	if meta.keepSpans {
		spans = meta.tr.Spans()
	} else {
		spans = meta.tr.TakeSpans()
	}
	return db.traces.Offer(&obs.RetainedTrace{
		TraceID:     seq,
		StartMicros: meta.start.UnixMicro(),
		Wall:        wall,
		SQL:         meta.sql,
		Error:       errMsg,
		Class:       class,
		Shape:       shape,
		CacheHit:    hit,
		Spans:       spans,
	})
}

// Run executes a prepared plan.
func (db *DB) Run(node engine.Node) (*Result, error) {
	return db.runInternal(node, db.execCtx(), queryMeta{})
}

// RunCtx executes a plan with a caller-provided execution context (the
// benchmark harness uses this for ablation switches). Zero-valued fields are
// defaulted from the database: catalog, snapshot, stats, and — matching Run —
// scan parallelism. Callers that need a serial scan set ec.Serial rather
// than relying on the Parallel zero value.
func (db *DB) RunCtx(node engine.Node, ec *engine.ExecCtx) (*Result, error) {
	if ec.Catalog == nil {
		ec.Catalog = db.cat
	}
	if ec.Snapshot == 0 {
		ec.Snapshot = db.cat.Snapshot()
	}
	if ec.Stats == nil {
		ec.Stats = &storage.ScanStats{}
	}
	if !ec.Parallel && !ec.Serial {
		ec.Parallel = db.parallel
	}
	if ec.MaxWorkers == 0 {
		ec.MaxWorkers = db.maxWorkers
	}
	return db.runInternal(node, ec, queryMeta{})
}

// ExplainAnalyze executes query with tracing enabled and renders the span
// tree: parse/plan/execute phases, every plan operator with its wall time
// and cardinalities, scans with their block-elimination breakdown (zone maps
// vs predicate cache) and cache outcome, and cache/slice events beneath the
// scans that produced them. A totals line mirrors LastQueryStats.
func (db *DB) ExplainAnalyze(query string) (string, error) {
	return db.explainAnalyze(context.Background(), query, query)
}

// explainRecorded is EXPLAIN's path through Query: plan only, never execute.
// Parse and plan failures are recorded in pc.query_log under displaySQL —
// the full statement the client sent, EXPLAIN prefix included — exactly like
// any other failed query; successful EXPLAINs execute nothing and are not
// recorded (matching the non-recording Explain accessor pcsh uses).
func (db *DB) explainRecorded(displaySQL, rest string) (string, error) {
	meta := queryMeta{sql: displaySQL, start: time.Now()}
	stmt, err := sql.Parse(rest)
	meta.parse = time.Since(meta.start)
	if err != nil {
		db.recordFailed(meta, err)
		return "", err
	}
	planStart := time.Now()
	node, err := sql.PlanWith(stmt, db.cat, db.sysTables)
	meta.plan = time.Since(planStart)
	if err != nil {
		db.recordFailed(meta, err)
		return "", err
	}
	return engine.Explain(node), nil
}

// explainAnalyze is the shared tail of ExplainAnalyze and Query's EXPLAIN
// ANALYZE prefix: rest is parsed and executed, displaySQL (the full
// statement, prefix included when it came through Query) is what the query
// log and trace store record, and ctx cancels the execution like QueryCtx.
func (db *DB) explainAnalyze(ctx context.Context, displaySQL, rest string) (string, error) {
	tr := obs.NewTrace()
	// keepSpans: the retention handoff copies the spans instead of detaching
	// them, because the live trace is rendered below after runInternal.
	meta := queryMeta{sql: displaySQL, start: time.Now(), tr: tr, keepSpans: true}
	psp := tr.Begin(obs.KindPhase, "parse")
	stmt, err := sql.Parse(rest)
	psp.End()
	meta.parse = time.Since(meta.start)
	if err != nil {
		db.recordFailed(meta, err)
		return "", err
	}
	planStart := time.Now()
	lsp := tr.Begin(obs.KindPhase, "plan")
	node, err := sql.PlanWith(stmt, db.cat, db.sysTables)
	lsp.End()
	meta.plan = time.Since(planStart)
	if err != nil {
		db.recordFailed(meta, err)
		return "", err
	}
	ec := db.execCtx()
	ec.Trace = tr
	if ctx != nil && ctx.Done() != nil {
		ec.Ctx = ctx
	}
	rel, err := db.runInternal(node, ec, meta)
	if err != nil {
		return "", err
	}
	snap := ec.Stats.Snapshot()
	var b strings.Builder
	b.WriteString(engine.RenderAnalyze(tr))
	fmt.Fprintf(&b, "result: %d rows\n", rel.NumRows())
	fmt.Fprintf(&b, "totals: rows scanned=%d qualified=%d decoded=%d; blocks accessed=%d decoded=%d kernel(encoded)=%d pruned(zonemap)=%d pruned(cache)=%d; cache hits=%d misses=%d\n",
		snap.RowsScanned, snap.RowsQualified, snap.RowsDecoded,
		snap.BlocksAccessed, snap.BlocksDecoded, snap.BlocksKernel,
		snap.BlocksSkipped, snap.BlocksPrunedCache, snap.CacheHits, snap.CacheMisses)
	return b.String(), nil
}

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
