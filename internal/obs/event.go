package obs

import "time"

// QueryEvent is the one record of a finished statement. The DB fills it once
// and hands it by pointer to every sink — trace store, query-log ring, SLO
// histograms, shape ledger, pushed metrics, logger — so the sinks agree on
// seq, shape, class, slow and error by construction. The query-log ring
// stores the event itself and pc.query_log serves it. Durations are
// microseconds (analytic queries at this scale run 10µs–10s; microseconds
// keep the integers human-readable while never rounding a kernel invocation
// to zero).
type QueryEvent struct {
	// Seq is the DB-wide statement sequence number, taken at statement start:
	// pc.query_log.seq, pc.traces.trace_id, the SLO and shape exemplars and
	// the query_id pprof label all carry it, whether or not the log retains
	// the row.
	Seq int64
	// StartMicros is the statement's wall-clock start, microseconds since the
	// Unix epoch.
	StartMicros int64
	// SQL is the statement text as the client sent it (EXPLAIN prefix
	// included); empty for hand-built plans run through DB.Run/RunCtx.
	SQL string
	// Error is the failure message, empty on success. Parse and plan
	// failures are events too: a query history that silently drops the
	// queries that went wrong is useless for debugging.
	Error string

	WallMicros  int64
	ParseMicros int64
	PlanMicros  int64
	ExecMicros  int64

	// Rows is the result cardinality (0 on error).
	Rows int64

	// Scan counters, copied once from the execution's ScanStatsSnapshot.
	RowsScanned         int64
	RowsQualified       int64
	RowsDecoded         int64
	BlocksAccessed      int64
	BlocksDecoded       int64
	BlocksKernel        int64
	BlocksPrunedZoneMap int64
	BlocksPrunedCache   int64
	CacheHits           int64
	CacheMisses         int64
	Morsels             int64
	WorkerMicros        int64

	// Resource attribution. CPUMicros is exec wall time plus the busy time
	// morsel workers contributed beyond the coordinator's wait.
	// AllocObjects/AllocBytes are runtime/metrics deltas taken around
	// execution — exact under a serial workload, an upper bound under
	// concurrency (the counters are process-wide). Zero for hand-built plans.
	CPUMicros    int64
	AllocObjects int64
	AllocBytes   int64

	// ShapeID is ShapeID(ShapeKey), set when a SQL statement reaches
	// execution: pc.query_log.shape_id, pc.query_shapes.shape_id,
	// pc.traces.shape, the trace store's quota key and the shape pprof label.
	ShapeID string
	// Slow marks statements at or over the DB's slow-query threshold.
	Slow bool

	// ShapeKey is the normalized statement text (the raw text when
	// normalization declines it), Class the SLO class of the plan, Session the
	// caller's connection label. All empty for hand-built plans; Class is
	// also empty when the statement never produced a plan.
	ShapeKey string
	Class    string
	Session  string
	// CacheHit reports whether any scan hit the predicate cache.
	CacheHit bool
	// Executed is false for statements that failed before execution: they
	// reach the log, the trace store and the logger but not the SLO
	// histograms, the shape ledger or the pushed metrics.
	Executed bool
	// Retained is set by the trace store when it admits the statement's
	// trace; sinks after it attach Seq as an exemplar only when set.
	Retained bool
}

// Wall returns the statement's wall time.
func (ev *QueryEvent) Wall() time.Duration {
	return time.Duration(ev.WallMicros) * time.Microsecond
}
