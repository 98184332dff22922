package predcache

import (
	"time"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
)

// Re-exported observability types: the public surface of trace retention,
// latency SLOs, runtime health and structured logging.
type (
	// RetainedTrace is one tail-sampled query trace (a pc.traces row plus
	// its spans).
	RetainedTrace = obs.RetainedTrace
	// TraceStoreStats reports the trace store's retention counters.
	TraceStoreStats = obs.TraceStoreStats
	// SLOReport is one pc.slo row: a (class, cache-outcome) latency summary.
	SLOReport = obs.SLOReport
	// SLOTarget is one latency objective for CheckSLO.
	SLOTarget = obs.SLOTarget
	// SLOViolation is one exceeded objective returned by CheckSLO.
	SLOViolation = obs.SLOViolation
	// RuntimeSample is one pc.runtime row: a process-health reading.
	RuntimeSample = obs.RuntimeSample
	// Logger is the nil-safe structured logger (log/slog) the engine emits
	// query-correlated lines through.
	Logger = obs.Logger
)

// NewJSONLogger constructs a logger for WithLogger/SetLogger.
var NewJSONLogger = obs.NewJSONLogger

// SetLogger installs (or, with nil, removes) the structured logger the
// engine writes slow-query, failure and lifecycle lines to. Every line that
// concerns a query carries query_id and trace_id (the same value), so a log
// line is one SQL filter away from its retained trace:
//
//	SELECT * FROM pc.trace_spans WHERE trace_id = 17
//
// Safe to call at any time from any goroutine.
func (db *DB) SetLogger(l *Logger) {
	db.logger.Store(l)
}

// Logger returns the installed structured logger (nil when none); the
// returned logger is nil-safe.
func (db *DB) Logger() *Logger {
	return db.logger.Load()
}

// RetainedTraces returns the tail-sampled traces currently retained, oldest
// first — the same rows served by pc.traces. Treat the traces as immutable.
func (db *DB) RetainedTraces() []*RetainedTrace {
	return db.traces.Traces()
}

// TraceByID returns the retained trace of the statement with sequence number
// id (pc.query_log.seq, pc.traces.trace_id), or nil when it was never
// retained or has been evicted.
func (db *DB) TraceByID(id int64) *RetainedTrace {
	return db.traces.Trace(id)
}

// TraceStats reports the trace store's retention counters.
func (db *DB) TraceStats() TraceStoreStats {
	return db.traces.Stats()
}

// RenderTrace formats a retained trace's span tree as indented text (the
// pcsh \trace renderer).
func RenderTrace(rt *RetainedTrace) string {
	if rt == nil {
		return ""
	}
	return obs.RenderSpans(rt.Spans)
}

// SLOReports summarizes every (query class, cache outcome) latency histogram
// — the same rows served by pc.slo.
func (db *DB) SLOReports() []SLOReport {
	return db.slo.Snapshot()
}

// CheckSLO evaluates latency objectives against the live distributions and
// returns every violation (empty means all objectives hold). Violations
// carry the tail exemplar trace ID for drill-down via TraceByID or
// pc.trace_spans.
func (db *DB) CheckSLO(targets []SLOTarget) []SLOViolation {
	return db.slo.Check(targets)
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
	sent := obs.NewSentinels(obs.SentinelConfig{}, db.alerts, db.logger.Load)
	old := db.runtime.Swap(obs.StartRuntimeCollector(interval, engine.ScratchPoolStats, sent))
	old.Stop()
}

// StopRuntimeSampler halts the health sampler, waiting for its goroutine to
// exit. The retained samples remain queryable via pc.runtime. Safe to call
// repeatedly and without a prior Start: Stop on a nil or already-stopped
// collector is a no-op.
func (db *DB) StopRuntimeSampler() {
	// Keep the stopped collector loaded (Load, not Swap(nil)): its ring is
	// what pc.runtime and RuntimeSamples serve after the sampler halts. A
	// concurrent Start cannot leak a collector either way — Start's Swap
	// stops whichever collector it displaces.
	db.runtime.Load().Stop()
}

// RuntimeSamples returns the retained health samples, oldest first — the
// same rows served by pc.runtime (nil when the sampler never ran).
func (db *DB) RuntimeSamples() []RuntimeSample {
	return db.runtime.Load().Samples()
}

// SampleRuntime takes one health reading synchronously. With no sampler
// running it starts none: the sample is computed and returned but only
// retained when a sampler's ring exists.
func (db *DB) SampleRuntime() RuntimeSample {
	if c := db.runtime.Load(); c != nil {
		return c.SampleNow()
	}
	return obs.ReadRuntimeSample(engine.ScratchPoolStats)
}
