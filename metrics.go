package predcache

import (
	"time"

	"github.com/predcache/predcache/internal/obs"
)

// NewMetrics creates an empty metrics registry to pass to EnableMetrics;
// pcserver -admin serves it at /metrics (internal/server) and pc.metrics
// reads it through SQL.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// queryMetrics holds the push-style instruments fed after every query; it is
// nil until EnableMetrics installs one, and the nil receiver records nothing.
type queryMetrics struct {
	queries        *obs.Counter
	errors         *obs.Counter
	seconds        *obs.SLOHistogram
	rowsScanned    *obs.Counter
	rowsQualified  *obs.Counter
	rowsDecoded    *obs.Counter
	blocksAccessed *obs.Counter
	blocksDecoded  *obs.Counter
	blocksKernel   *obs.Counter
	blocksZone     *obs.Counter
	blocksCache    *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	morsels        *obs.Counter
	workerMicros   *obs.Counter
}

// EnableMetrics registers the database's instruments on m and starts feeding
// them: query counters and a latency histogram (pushed per query), table
// gauges and predicate-cache counters (pulled at scrape time). Call once per
// registry, before serving it.
func (db *DB) EnableMetrics(m *obs.Metrics) {
	qm := &queryMetrics{
		queries:        m.NewCounter("predcache_queries_total", "Queries executed (including failed ones)."),
		errors:         m.NewCounter("predcache_query_errors_total", "Queries that returned an error."),
		seconds:        &obs.SLOHistogram{},
		rowsScanned:    m.NewCounter("predcache_rows_scanned_total", "Rows the vectorized filter evaluated."),
		rowsQualified:  m.NewCounter("predcache_rows_qualified_total", "Rows passing filters and visibility."),
		rowsDecoded:    m.NewCounter("predcache_rows_decoded_total", "Values the partial decoder materialized."),
		blocksAccessed: m.NewCounter("predcache_blocks_accessed_total", "Column blocks touched (kernel or decode)."),
		blocksDecoded:  m.NewCounter("predcache_blocks_decoded_total", "Column blocks decompressed."),
		blocksKernel:   m.NewCounter("predcache_blocks_kernel_encoded_total", "Kernel evaluations directly on encoded blocks."),
		blocksZone:     m.NewCounter("predcache_blocks_pruned_zonemap_total", "Row blocks eliminated by zone maps."),
		blocksCache:    m.NewCounter("predcache_blocks_pruned_cache_total", "Row blocks excluded by predicate-cache hits."),
		cacheHits:      m.NewCounter("predcache_scan_cache_hits_total", "Scans served from a predicate-cache entry."),
		cacheMisses:    m.NewCounter("predcache_scan_cache_misses_total", "Scans that missed the predicate cache."),
		morsels:        m.NewCounter("predcache_morsels_total", "Morsels claimed by parallel join/aggregation workers."),
		workerMicros:   m.NewCounter("predcache_parallel_worker_micros_total", "Summed busy time of morsel-parallel workers in microseconds."),
	}
	m.NewHistogramFunc("predcache_query_seconds", "Execution time of successful queries.", qm.seconds.Snapshot)
	m.NewGauge("predcache_tables", "Tables in the catalog.", func() float64 {
		return float64(len(db.cat.TableNames()))
	})
	m.NewGauge("predcache_table_rows", "Physical rows across all tables.", func() float64 {
		n := 0
		for _, name := range db.cat.TableNames() {
			if tbl, ok := db.cat.Table(name); ok {
				n += tbl.NumRows()
			}
		}
		return float64(n)
	})
	m.NewGauge("predcache_table_mem_bytes", "Memory held by table data.", func() float64 {
		n := 0
		for _, name := range db.cat.TableNames() {
			if tbl, ok := db.cat.Table(name); ok {
				n += tbl.MemBytes()
			}
		}
		return float64(n)
	})
	if db.cache != nil {
		db.cache.RegisterMetrics(m)
	}
	db.slo.RegisterMetrics(m)
	db.traces.RegisterMetrics(m)
	obs.RegisterSamplerMetrics(m, db.runtime.Load)
	db.metrics.Store(qm)
	db.metricsReg.Store(m)
}

// record feeds one executed statement into the instruments.
func (qm *queryMetrics) record(ev *obs.QueryEvent) {
	if qm == nil {
		return
	}
	qm.queries.Inc()
	if ev.Error != "" {
		qm.errors.Inc()
		return
	}
	qm.seconds.Observe(time.Duration(ev.ExecMicros)*time.Microsecond, -1, false)
	qm.rowsScanned.Add(ev.RowsScanned)
	qm.rowsQualified.Add(ev.RowsQualified)
	qm.rowsDecoded.Add(ev.RowsDecoded)
	qm.blocksAccessed.Add(ev.BlocksAccessed)
	qm.blocksDecoded.Add(ev.BlocksDecoded)
	qm.blocksKernel.Add(ev.BlocksKernel)
	qm.blocksZone.Add(ev.BlocksPrunedZoneMap)
	qm.blocksCache.Add(ev.BlocksPrunedCache)
	qm.cacheHits.Add(ev.CacheHits)
	qm.cacheMisses.Add(ev.CacheMisses)
	qm.morsels.Add(ev.Morsels)
	qm.workerMicros.Add(ev.WorkerMicros)
}
