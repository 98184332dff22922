package systab

import (
	"strconv"
	"strings"

	"github.com/predcache/predcache/internal/engine"
	"github.com/predcache/predcache/internal/obs"
	"github.com/predcache/predcache/internal/storage"
)

// The trace, SLO and runtime tables below complete the observability loop
// started by pc.query_log: the log says *that* a query was slow, pc.traces
// + pc.trace_spans say *why* (span by span), pc.slo says how the class is
// doing overall and links its tail back to a retained trace, and pc.runtime
// says what the process looked like while it happened. All of them are
// plain virtual tables: filters, joins and aggregates against user tables
// and each other work unchanged.

var tracesSchema = storage.Schema{
	{Name: "trace_id", Type: storage.Int64},
	{Name: "start_micros", Type: storage.Int64},
	{Name: "wall_us", Type: storage.Int64},
	{Name: "query_text", Type: storage.String},
	{Name: "error", Type: storage.String},
	{Name: "query_class", Type: storage.String},
	{Name: "shape", Type: storage.String},
	{Name: "cache_hit", Type: storage.Bool},
	{Name: "reason", Type: storage.String},
	{Name: "spans", Type: storage.Int64},
}

// tracesTable exposes the trace store's retained traces as pc.traces, one
// row per trace; trace_id equals the query's pc.query_log.seq and shape its
// shape_id (joinable to pc.query_shapes; empty when the statement failed
// before execution).
type tracesTable struct {
	store *obs.TraceStore
}

// TracesTable builds the pc.traces provider (store may be nil: the table is
// then always empty).
func TracesTable(store *obs.TraceStore) engine.VirtualTable {
	return &tracesTable{store: store}
}

func (t *tracesTable) Name() string           { return "pc.traces" }
func (t *tracesTable) Schema() storage.Schema { return tracesSchema }
func (t *tracesTable) NumRows() int           { return t.store.Stats().Retained }

func (t *tracesTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(tracesSchema)
	for _, rt := range t.store.Traces() {
		b.row(rt.Seq, rt.StartMicros, rt.WallMicros,
			rt.SQL, rt.Error, rt.Class, rt.ShapeID, rt.CacheHit, rt.Reason,
			int64(len(rt.Spans)))
	}
	return b.relation()
}

var traceSpansSchema = storage.Schema{
	{Name: "trace_id", Type: storage.Int64},
	{Name: "span_id", Type: storage.Int64},
	{Name: "parent_id", Type: storage.Int64},
	{Name: "kind", Type: storage.String},
	{Name: "name", Type: storage.String},
	{Name: "start_us", Type: storage.Int64},
	{Name: "dur_us", Type: storage.Int64},
	{Name: "attrs", Type: storage.String},
}

// traceSpansTable flattens every retained trace into pc.trace_spans: one
// row per span, attrs rendered as "k=v k=v".
type traceSpansTable struct {
	store *obs.TraceStore
}

// TraceSpansTable builds the pc.trace_spans provider.
func TraceSpansTable(store *obs.TraceStore) engine.VirtualTable {
	return &traceSpansTable{store: store}
}

func (t *traceSpansTable) Name() string           { return "pc.trace_spans" }
func (t *traceSpansTable) Schema() storage.Schema { return traceSpansSchema }
func (t *traceSpansTable) NumRows() int           { return t.store.Stats().SpanCount }

func (t *traceSpansTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(traceSpansSchema)
	var attrs strings.Builder
	for _, rt := range t.store.Traces() {
		for i := range rt.Spans {
			sp := &rt.Spans[i]
			attrs.Reset()
			for _, a := range sp.Attrs {
				if attrs.Len() > 0 {
					attrs.WriteByte(' ')
				}
				attrs.WriteString(a.Key)
				attrs.WriteByte('=')
				if a.IsStr {
					attrs.WriteString(a.Str)
				} else {
					attrs.WriteString(strconv.FormatInt(a.Int, 10))
				}
			}
			b.row(rt.Seq, int64(sp.ID), int64(sp.Parent), sp.Kind, sp.Name,
				sp.Start.Microseconds(), sp.Dur.Microseconds(), attrs.String())
		}
	}
	return b.relation()
}

var sloSchema = storage.Schema{
	{Name: "query_class", Type: storage.String},
	{Name: "cache_outcome", Type: storage.String},
	{Name: "sample_count", Type: storage.Int64},
	{Name: "p50_us", Type: storage.Int64},
	{Name: "p99_us", Type: storage.Int64},
	{Name: "p999_us", Type: storage.Int64},
	{Name: "max_us", Type: storage.Int64},
	{Name: "exemplar_trace_id", Type: storage.Int64},
	{Name: "exemplar_us", Type: storage.Int64},
}

// sloTable exposes the per-class latency percentiles as pc.slo, one row per
// (class, cache outcome); exemplar_trace_id joins pc.traces.trace_id.
type sloTable struct {
	slo *obs.SLOSet
}

// SLOTable builds the pc.slo provider (slo may be nil: empty table).
func SLOTable(slo *obs.SLOSet) engine.VirtualTable {
	return &sloTable{slo: slo}
}

func (t *sloTable) Name() string           { return "pc.slo" }
func (t *sloTable) Schema() storage.Schema { return sloSchema }

func (t *sloTable) NumRows() int {
	return len(t.slo.Snapshot())
}

func (t *sloTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(sloSchema)
	for _, r := range t.slo.Snapshot() {
		outcome := "miss"
		if r.CacheHit {
			outcome = "hit"
		}
		b.row(r.Class, outcome, int64(r.Count),
			r.P50.Microseconds(), r.P99.Microseconds(), r.P999.Microseconds(),
			r.Max.Microseconds(), r.ExemplarTraceID, r.ExemplarDur.Microseconds())
	}
	return b.relation()
}

var runtimeSchema = storage.Schema{
	{Name: "ts_micros", Type: storage.Int64},
	{Name: "goroutines", Type: storage.Int64},
	{Name: "heap_alloc_bytes", Type: storage.Int64},
	{Name: "heap_sys_bytes", Type: storage.Int64},
	{Name: "rss_bytes", Type: storage.Int64},
	{Name: "gc_cycles", Type: storage.Int64},
	{Name: "gc_pause_ns", Type: storage.Int64},
	{Name: "pool_gets", Type: storage.Int64},
	{Name: "pool_news", Type: storage.Int64},
}

// runtimeTable exposes the runtime collector's sample ring as pc.runtime,
// one row per sample, oldest first. Without a running collector it falls
// back to a single on-demand sample so the table always answers.
type runtimeTable struct {
	source func() *obs.RuntimeCollector
	live   func() obs.RuntimeSample
}

// RuntimeTable builds the pc.runtime provider. source is read at snapshot
// time so the table follows StartRuntimeSampler; live (may be nil) supplies
// the one-shot fallback sample when no collector is running.
func RuntimeTable(source func() *obs.RuntimeCollector, live func() obs.RuntimeSample) engine.VirtualTable {
	return &runtimeTable{source: source, live: live}
}

func (t *runtimeTable) Name() string           { return "pc.runtime" }
func (t *runtimeTable) Schema() storage.Schema { return runtimeSchema }

func (t *runtimeTable) collector() *obs.RuntimeCollector {
	if t.source == nil {
		return nil
	}
	return t.source()
}

func (t *runtimeTable) samples() []obs.RuntimeSample {
	if s := t.collector().Samples(); len(s) > 0 {
		return s
	}
	if t.live == nil {
		return nil
	}
	return []obs.RuntimeSample{t.live()}
}

func (t *runtimeTable) NumRows() int {
	return len(t.samples())
}

func (t *runtimeTable) Snapshot() (*engine.Relation, error) {
	b := newBuilder(runtimeSchema)
	for _, s := range t.samples() {
		b.row(s.TSMicros, s.Goroutines, s.HeapAllocBytes, s.HeapSysBytes,
			s.RSSBytes, s.GCCycles, s.GCPauseNs, s.PoolGets, s.PoolNews)
	}
	return b.relation()
}
