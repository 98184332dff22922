package systab

import (
	"github.com/predcache/predcache/internal/core"
	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// Column names below avoid SQL reserved words (sql → query_text, rows →
// result_rows, table → table_name) so every pc.* column is directly
// referenceable without quoting, which the parser does not support.

var queryLogSchema = storage.Schema{
	{Name: "seq", Type: storage.Int64},
	{Name: "start_micros", Type: storage.Int64},
	{Name: "query_text", Type: storage.String},
	{Name: "error", Type: storage.String},
	{Name: "wall_us", Type: storage.Int64},
	{Name: "parse_us", Type: storage.Int64},
	{Name: "plan_us", Type: storage.Int64},
	{Name: "exec_us", Type: storage.Int64},
	{Name: "result_rows", Type: storage.Int64},
	{Name: "rows_scanned", Type: storage.Int64},
	{Name: "rows_qualified", Type: storage.Int64},
	{Name: "rows_decoded", Type: storage.Int64},
	{Name: "blocks_accessed", Type: storage.Int64},
	{Name: "blocks_decoded", Type: storage.Int64},
	{Name: "blocks_kernel", Type: storage.Int64},
	{Name: "blocks_pruned_zonemap", Type: storage.Int64},
	{Name: "blocks_pruned_cache", Type: storage.Int64},
	{Name: "cache_hits", Type: storage.Int64},
	{Name: "cache_misses", Type: storage.Int64},
	{Name: "cpu_us", Type: storage.Int64},
	{Name: "allocs", Type: storage.Int64},
	{Name: "alloc_bytes", Type: storage.Int64},
	{Name: "shape_id", Type: storage.String},
	{Name: "slow", Type: storage.Bool},
}

// queryLogTable exposes a QueryRecorder as pc.query_log.
type queryLogTable struct {
	rec *QueryRecorder
}

// QueryLogTable builds the pc.query_log provider over rec (which may be
// nil: the table then always snapshots empty).
func QueryLogTable(rec *QueryRecorder) engine.VirtualTable {
	return &queryLogTable{rec: rec}
}

func (t *queryLogTable) Name() string           { return "pc.query_log" }
func (t *queryLogTable) Schema() storage.Schema { return queryLogSchema }
func (t *queryLogTable) NumRows() int           { return t.rec.Len() }

func (t *queryLogTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(queryLogSchema)
	for _, r := range t.rec.Records() {
		b.row(r.Seq, r.StartMicros, r.SQL, r.Error,
			r.WallMicros, r.ParseMicros, r.PlanMicros, r.ExecMicros,
			r.Rows, r.RowsScanned, r.RowsQualified, r.RowsDecoded,
			r.BlocksAccessed, r.BlocksDecoded, r.BlocksKernel,
			r.BlocksPrunedZoneMap, r.BlocksPrunedCache,
			r.CacheHits, r.CacheMisses,
			r.CPUMicros, r.AllocObjects, r.AllocBytes, r.ShapeID, r.Slow)
	}
	return b.relation()
}

var cacheEntriesSchema = storage.Schema{
	{Name: "key", Type: storage.String},
	{Name: "table_name", Type: storage.String},
	{Name: "kind", Type: storage.String},
	{Name: "semijoin", Type: storage.Bool},
	{Name: "est_rows", Type: storage.Int64},
	{Name: "mem_bytes", Type: storage.Int64},
	{Name: "hits", Type: storage.Int64},
	{Name: "ranges", Type: storage.Int64},
	{Name: "slices", Type: storage.Int64},
	{Name: "epoch", Type: storage.Int64},
	{Name: "created_micros", Type: storage.Int64},
	{Name: "last_hit_micros", Type: storage.Int64},
}

// cacheEntriesTable exposes the predicate cache's entries as
// pc.cache_entries, in LRU order (most recently used first).
type cacheEntriesTable struct {
	cache *core.Cache
}

// CacheEntriesTable builds the pc.cache_entries provider (cache may be nil
// when the DB runs without a predicate cache; the table is then empty).
func CacheEntriesTable(cache *core.Cache) engine.VirtualTable {
	return &cacheEntriesTable{cache: cache}
}

func (t *cacheEntriesTable) Name() string           { return "pc.cache_entries" }
func (t *cacheEntriesTable) Schema() storage.Schema { return cacheEntriesSchema }

func (t *cacheEntriesTable) NumRows() int {
	if t.cache == nil {
		return 0
	}
	return t.cache.Stats().Entries
}

func (t *cacheEntriesTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(cacheEntriesSchema)
	if t.cache != nil {
		for _, e := range t.cache.Entries() {
			b.row(e.Key, e.Table, e.Kind.String(), e.SemiJoin,
				e.EstRows, e.MemBytes, e.Hits, e.Ranges, e.Slices,
				e.Epoch, micros(e.CreatedAt), micros(e.LastHit))
		}
	}
	return b.relation()
}

var cacheStatsSchema = storage.Schema{
	{Name: "hits", Type: storage.Int64},
	{Name: "misses", Type: storage.Int64},
	{Name: "inserts", Type: storage.Int64},
	{Name: "extends", Type: storage.Int64},
	{Name: "evictions", Type: storage.Int64},
	{Name: "invalidations", Type: storage.Int64},
	{Name: "admission_deferred", Type: storage.Int64},
	{Name: "admission_rejected", Type: storage.Int64},
	{Name: "entries", Type: storage.Int64},
	{Name: "mem_bytes", Type: storage.Int64},
	{Name: "enabled", Type: storage.Bool},
}

// cacheStatsTable exposes the cache counters as the single-row
// pc.cache_stats.
type cacheStatsTable struct {
	cache *core.Cache
}

// CacheStatsTable builds the pc.cache_stats provider (nil cache reports an
// all-zero, disabled row).
func CacheStatsTable(cache *core.Cache) engine.VirtualTable {
	return &cacheStatsTable{cache: cache}
}

func (t *cacheStatsTable) Name() string           { return "pc.cache_stats" }
func (t *cacheStatsTable) Schema() storage.Schema { return cacheStatsSchema }
func (t *cacheStatsTable) NumRows() int           { return 1 }

func (t *cacheStatsTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(cacheStatsSchema)
	var st core.Stats
	if t.cache != nil {
		st = t.cache.Stats()
	}
	b.row(st.Hits, st.Misses, st.Inserts, st.Extends, st.Evictions,
		st.Invalidations, st.AdmissionDeferred, st.AdmissionRejected,
		st.Entries, st.MemBytes, t.cache != nil)
	return b.relation()
}

var tableStorageSchema = storage.Schema{
	{Name: "table_name", Type: storage.String},
	{Name: "column_name", Type: storage.String},
	{Name: "column_type", Type: storage.String},
	{Name: "result_rows", Type: storage.Int64},
	{Name: "blocks", Type: storage.Int64},
	{Name: "raw_blocks", Type: storage.Int64},
	{Name: "rle_blocks", Type: storage.Int64},
	{Name: "for_blocks", Type: storage.Int64},
	{Name: "tail_rows", Type: storage.Int64},
	{Name: "payload_bytes", Type: storage.Int64},
	{Name: "zonemap_bytes", Type: storage.Int64},
	{Name: "dict_bytes", Type: storage.Int64},
}

// tableStorageTable exposes the physical layout of every user table as
// pc.table_storage: one row per (table, column).
type tableStorageTable struct {
	cat *storage.Catalog
}

// TableStorageTable builds the pc.table_storage provider.
func TableStorageTable(cat *storage.Catalog) engine.VirtualTable {
	return &tableStorageTable{cat: cat}
}

func (t *tableStorageTable) Name() string           { return "pc.table_storage" }
func (t *tableStorageTable) Schema() storage.Schema { return tableStorageSchema }

func (t *tableStorageTable) NumRows() int {
	n := 0
	for _, name := range t.cat.TableNames() {
		if tbl, ok := t.cat.Table(name); ok {
			n += len(tbl.Schema())
		}
	}
	return n
}

func (t *tableStorageTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(tableStorageSchema)
	for _, name := range t.cat.TableNames() {
		tbl, ok := t.cat.Table(name)
		if !ok {
			continue // dropped between listing and lookup
		}
		for _, st := range tbl.StorageStats() {
			b.row(name, st.Column, st.Type.String(), st.Rows, st.Blocks,
				st.RawBlocks, st.RLEBlocks, st.FORBlocks, st.TailRows,
				st.PayloadBytes, st.ZoneMapBytes, st.DictBytes)
		}
	}
	return b.relation()
}

var metricsSchema = storage.Schema{
	{Name: "name", Type: storage.String},
	{Name: "metric_type", Type: storage.String},
	{Name: "value", Type: storage.Float64},
	{Name: "help", Type: storage.String},
}

// metricsTable exposes a metrics registry as pc.metrics, one flattened
// sample per row (histograms contribute _count and _sum rows).
type metricsTable struct {
	source func() *obs.Metrics
}

// MetricsTable builds the pc.metrics provider. source is read at snapshot
// time so the table follows EnableMetrics; a nil source or a nil registry
// snapshots empty.
func MetricsTable(source func() *obs.Metrics) engine.VirtualTable {
	return &metricsTable{source: source}
}

func (t *metricsTable) Name() string           { return "pc.metrics" }
func (t *metricsTable) Schema() storage.Schema { return metricsSchema }

func (t *metricsTable) registry() *obs.Metrics {
	if t.source == nil {
		return nil
	}
	return t.source()
}

func (t *metricsTable) NumRows() int {
	if m := t.registry(); m != nil {
		return len(m.Samples())
	}
	return 0
}

func (t *metricsTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(metricsSchema)
	if m := t.registry(); m != nil {
		for _, s := range m.Samples() {
			b.row(s.Name, s.Type, s.Value, s.Help)
		}
	}
	return b.relation()
}
