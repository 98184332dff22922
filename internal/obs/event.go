package obs

import "time"

// QueryEvent is the one record of a finished statement. The DB fills it once
// and hands it by pointer to every sink — trace store, query-log ring, SLO
// histograms, shape ledger, pushed metrics, logger — so the sinks agree on
// seq, shape, class, slow and error by construction. The query-log ring
// stores the event itself: the exported JSON field names are the
// pc.query_log columns. Durations are microseconds (analytic queries at this
// scale run 10µs–10s; microseconds keep the integers human-readable while
// never rounding a kernel invocation to zero).
type QueryEvent struct {
	// Seq is the DB-wide statement sequence number, taken at statement start:
	// pc.query_log.seq, pc.traces.trace_id, the SLO and shape exemplars and
	// the query_id pprof label all carry it, whether or not the log retains
	// the row.
	Seq int64 `json:"seq"`
	// StartMicros is the statement's wall-clock start, microseconds since the
	// Unix epoch.
	StartMicros int64 `json:"start_micros"`
	// SQL is the statement text as the client sent it (EXPLAIN prefix
	// included); empty for hand-built plans run through DB.Run/RunCtx.
	SQL string `json:"query_text,omitempty"`
	// Error is the failure message, empty on success. Parse and plan
	// failures are events too: a query history that silently drops the
	// queries that went wrong is useless for debugging.
	Error string `json:"error,omitempty"`

	WallMicros  int64 `json:"wall_us"`
	ParseMicros int64 `json:"parse_us"`
	PlanMicros  int64 `json:"plan_us"`
	ExecMicros  int64 `json:"exec_us"`

	// Rows is the result cardinality (0 on error).
	Rows int64 `json:"result_rows"`

	// Scan counters, copied once from the execution's ScanStatsSnapshot.
	RowsScanned         int64 `json:"rows_scanned"`
	RowsQualified       int64 `json:"rows_qualified"`
	RowsDecoded         int64 `json:"rows_decoded"`
	BlocksAccessed      int64 `json:"blocks_accessed"`
	BlocksDecoded       int64 `json:"blocks_decoded"`
	BlocksKernel        int64 `json:"blocks_kernel"`
	BlocksPrunedZoneMap int64 `json:"blocks_pruned_zonemap"`
	BlocksPrunedCache   int64 `json:"blocks_pruned_cache"`
	CacheHits           int64 `json:"cache_hits"`
	CacheMisses         int64 `json:"cache_misses"`
	Morsels             int64 `json:"-"`
	WorkerMicros        int64 `json:"-"`

	// Resource attribution. CPUMicros is exec wall time plus the busy time
	// morsel workers contributed beyond the coordinator's wait.
	// AllocObjects/AllocBytes are runtime/metrics deltas taken around
	// execution — exact under a serial workload, an upper bound under
	// concurrency (the counters are process-wide). Zero for hand-built plans.
	CPUMicros    int64 `json:"cpu_us"`
	AllocObjects int64 `json:"allocs"`
	AllocBytes   int64 `json:"alloc_bytes"`

	// ShapeID is ShapeID(ShapeKey), set when a SQL statement reaches
	// execution: pc.query_log.shape_id, pc.query_shapes.shape_id,
	// pc.traces.shape, the trace store's quota key and the shape pprof label.
	ShapeID string `json:"shape_id,omitempty"`
	// Slow marks statements at or over the DB's slow-query threshold.
	Slow bool `json:"slow,omitempty"`

	// ShapeKey is the normalized statement text (the raw text when
	// normalization declines it), Class the SLO class of the plan, Session the
	// caller's connection label. All empty for hand-built plans; Class is
	// also empty when the statement never produced a plan.
	ShapeKey string `json:"-"`
	Class    string `json:"-"`
	Session  string `json:"-"`
	// CacheHit reports whether any scan hit the predicate cache.
	CacheHit bool `json:"-"`
	// Executed is false for statements that failed before execution: they
	// reach the log, the trace store and the logger but not the SLO
	// histograms, the shape ledger or the pushed metrics.
	Executed bool `json:"-"`
	// Retained is set by the trace store when it admits the statement's
	// trace; sinks after it attach Seq as an exemplar only when set.
	Retained bool `json:"-"`
}

// Wall returns the statement's wall time.
func (ev *QueryEvent) Wall() time.Duration {
	return time.Duration(ev.WallMicros) * time.Microsecond
}
