package obs

import "sync"

// Retention reasons attached to retained traces (pc.traces.reason).
const (
	RetainError   = "error"   // the query failed; always admitted
	RetainSlow    = "slow"    // wall time at or over the slow threshold; always admitted
	RetainSampled = "sampled" // head-sampled within the trace's shape quota
)

// RetainedTrace is one completed query trace the store decided to keep: the
// statement's event (Seq is the trace id and joins pc.query_log.seq; ShapeID
// is the sampling-quota key), why it was kept, and its spans.
type RetainedTrace struct {
	QueryEvent
	Reason string // RetainError, RetainSlow or RetainSampled
	Spans  []Span
}

// TraceStoreConfig bounds the trace store. The zero value selects defaults.
type TraceStoreConfig struct {
	// SpanBudget caps the total spans retained across all traces (default
	// DefaultSpanBudget). The store never holds more: admitting a trace
	// evicts the oldest retained traces until the new one fits. A single
	// trace larger than the whole budget has its spans truncated.
	SpanBudget int
	// ShapeQuota caps how many traces of one shape may be retained for the
	// "sampled" reason at a time (default DefaultShapeQuota). Errored and
	// slow traces bypass the quota: the tail is what the store is for.
	ShapeQuota int
}

// DefaultSpanBudget bounds retained spans; at ~100 bytes per span the
// default costs a fixed ~1.6 MiB per database in the worst case.
const DefaultSpanBudget = 16384

// DefaultShapeQuota is how many head-sampled traces of one query shape the
// store keeps alongside the always-admitted errored and slow traces.
const DefaultShapeQuota = 4

// TraceStore tail-samples completed query traces into a bounded buffer.
// Admission is decided after the query finishes — when its wall time, error
// state and shape are known — which is what lets it keep exactly the traces
// worth keeping: every error, everything over the slow threshold, and a
// small head-sample per query shape for baseline comparison. Eviction is
// FIFO; errored and slow traces age out like the rest, so memory stays
// bounded no matter the workload mix.
//
// All methods are safe for concurrent use, and every method on a nil
// *TraceStore is a no-op (tracing disabled).
type TraceStore struct {
	mu sync.Mutex
	// ring holds retained traces oldest-first in [head, head+n); its
	// capacity is fixed at construction (every trace has at least one span,
	// so SpanBudget traces is the most that can ever be retained).
	ring []*RetainedTrace // guarded by mu
	head int              // guarded by mu
	n    int              // guarded by mu
	// spanCount is the invariant the budget enforces: total spans across
	// ring, always <= cfg.SpanBudget.
	spanCount int            // guarded by mu
	byShape   map[string]int // guarded by mu; retained "sampled" traces per shape

	offered, retained, evicted int64 // guarded by mu; lifetime counters

	cfg TraceStoreConfig // immutable after NewTraceStore
}

// NewTraceStore builds a store with cfg (zero fields take defaults).
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.SpanBudget <= 0 {
		cfg.SpanBudget = DefaultSpanBudget
	}
	if cfg.ShapeQuota <= 0 {
		cfg.ShapeQuota = DefaultShapeQuota
	}
	return &TraceStore{
		ring:    make([]*RetainedTrace, cfg.SpanBudget),
		byShape: make(map[string]int),
		cfg:     cfg,
	}
}

// Offer submits a finished statement's trace for retention. The decision
// comes first and reads only the event — errored and slow statements are
// always admitted, the rest while their shape has head-sample quota left —
// so a dropped trace costs a lock and a map lookup. Only an admitted trace
// is finalized (open spans ended, the error stamped on the root span),
// detached from tr without copying and wrapped in a RetainedTrace; Offer
// then sets ev.Retained. Traces without spans are never retained.
func (ts *TraceStore) Offer(ev *QueryEvent, tr *Trace) {
	if ts == nil || tr == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.offered++
	reason := RetainSampled
	switch {
	case ev.Error != "":
		reason = RetainError
	case ev.Slow:
		reason = RetainSlow
	case ts.byShape[ev.ShapeID] >= ts.cfg.ShapeQuota:
		return
	}
	tr.FinishOpen(ev.Error)
	spans := tr.TakeSpans()
	if len(spans) == 0 {
		return
	}
	if len(spans) > ts.cfg.SpanBudget {
		spans = spans[:ts.cfg.SpanBudget]
	}
	for ts.spanCount+len(spans) > ts.cfg.SpanBudget {
		ts.evictOldestLocked()
	}
	ev.Retained = true
	ts.admitLocked(&RetainedTrace{QueryEvent: *ev, Reason: reason, Spans: spans})
}

// admitLocked appends rt to the ring: O(1) pointer moves, no allocation —
// the handoff cost the hot path is promised. The budget loop in Offer has
// already made room.
//
// pclint:held — callers hold ts.mu.
func (ts *TraceStore) admitLocked(rt *RetainedTrace) {
	ts.ring[(ts.head+ts.n)%len(ts.ring)] = rt
	ts.n++
	ts.spanCount += len(rt.Spans)
	if rt.Reason == RetainSampled {
		ts.byShape[rt.ShapeID]++ // a new shape's first admit grows the map
	}
	ts.retained++
}

// pclint:held — callers hold ts.mu.
func (ts *TraceStore) evictOldestLocked() {
	if ts.n == 0 {
		return
	}
	old := ts.ring[ts.head]
	ts.ring[ts.head] = nil
	ts.head = (ts.head + 1) % len(ts.ring)
	ts.n--
	ts.spanCount -= len(old.Spans)
	if old.Reason == RetainSampled {
		if c := ts.byShape[old.ShapeID]; c <= 1 {
			delete(ts.byShape, old.ShapeID)
		} else {
			ts.byShape[old.ShapeID] = c - 1
		}
	}
	ts.evicted++
}

// Traces returns the retained traces, oldest first. The returned slice is
// fresh but the *RetainedTrace values are shared: treat them as immutable.
func (ts *TraceStore) Traces() []*RetainedTrace {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*RetainedTrace, 0, ts.n)
	for i := 0; i < ts.n; i++ {
		out = append(out, ts.ring[(ts.head+i)%len(ts.ring)])
	}
	return out
}

// Trace returns the retained trace with the given ID, or nil.
func (ts *TraceStore) Trace(id int64) *RetainedTrace {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i := 0; i < ts.n; i++ {
		if rt := ts.ring[(ts.head+i)%len(ts.ring)]; rt.Seq == id {
			return rt
		}
	}
	return nil
}

// TraceStoreStats reports the store's lifetime and current counters.
type TraceStoreStats struct {
	Retained   int   // traces currently held
	SpanCount  int   // spans currently held (<= SpanBudget)
	SpanBudget int   // configured budget
	Offered    int64 // traces ever offered
	Kept       int64 // traces ever admitted
	Evicted    int64 // traces evicted to make room
}

// Stats returns a snapshot of the store counters.
func (ts *TraceStore) Stats() TraceStoreStats {
	if ts == nil {
		return TraceStoreStats{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return TraceStoreStats{
		Retained:   ts.n,
		SpanCount:  ts.spanCount,
		SpanBudget: ts.cfg.SpanBudget,
		Offered:    ts.offered,
		Kept:       ts.retained,
		Evicted:    ts.evicted,
	}
}

// RegisterMetrics exposes the store's retention counters on m. Nil-safe:
// a disabled store registers nothing.
func (ts *TraceStore) RegisterMetrics(m *Metrics) {
	if ts == nil {
		return
	}
	m.NewGauge("predcache_traces_retained", "Query traces currently retained.", func() float64 {
		return float64(ts.Stats().Retained)
	})
	m.NewGauge("predcache_trace_spans_retained", "Trace spans currently retained (bounded by the span budget).", func() float64 {
		return float64(ts.SpanCount())
	})
	m.NewCounterFunc("predcache_traces_offered_total", "Completed traces offered for retention.", func() int64 {
		return ts.Stats().Offered
	})
	m.NewCounterFunc("predcache_traces_kept_total", "Offered traces admitted (error, slow, or head-sampled).", func() int64 {
		return ts.Stats().Kept
	})
	m.NewCounterFunc("predcache_traces_evicted_total", "Retained traces evicted FIFO to stay within the span budget.", func() int64 {
		return ts.Stats().Evicted
	})
}

// SpanCount returns the spans currently retained (always <= the budget).
func (ts *TraceStore) SpanCount() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.spanCount
}
