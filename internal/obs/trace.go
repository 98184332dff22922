// Package obs is the engine's zero-dependency observability layer: per-query
// trace spans (parse → plan → per-node execute → per-slice scan → cache
// events), a counter/gauge/histogram metrics registry with Prometheus text
// and JSON export, and an optional net/http endpoint serving both alongside
// pprof. Everything is stdlib-only.
//
// The tracing API is nil-safe by design: every method on a nil *Trace or a
// zero SpanRef is a no-op, so instrumented hot paths pay a single branch
// when tracing is disabled.
package obs

import (
	"sync"
	"time"
)

// Span kinds used by the engine. The renderer treats them uniformly; they
// exist so consumers (EXPLAIN ANALYZE, tests) can filter.
const (
	KindPhase = "phase" // parse, plan, execute
	KindNode  = "node"  // one plan-operator execution
	KindSlice = "slice" // one data slice of a scan
	KindCache = "cache" // predicate-cache lookup/insert/extend/evict/invalidate
)

// Attr is one key/value annotation on a span. Exactly one of Int/Str is
// meaningful, selected by IsStr.
type Attr struct {
	Key   string
	Int   int64
	Str   string
	IsStr bool
}

// Span is one timed interval of a query trace. Start is the offset from the
// trace's creation; Dur is zero until the span ends.
type Span struct {
	ID     int
	Parent int // span ID, or -1 for roots
	Kind   string
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// IntAttr returns the integer attribute named key, or (0, false).
func (s *Span) IntAttr(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Int, true
		}
	}
	return 0, false
}

// StrAttr returns the string attribute named key, or ("", false).
func (s *Span) StrAttr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key && a.IsStr {
			return a.Str, true
		}
	}
	return "", false
}

// Trace records the spans of one query execution. All methods are safe for
// concurrent use (parallel slice scans record concurrently) and all methods
// on a nil *Trace are no-ops.
type Trace struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span // guarded by mu
	stack []int  // guarded by mu; open Begin spans, innermost last
}

// NewTrace starts an empty trace; the zero time offset is now.
func NewTrace() *Trace {
	return &Trace{t0: time.Now()}
}

// SpanRef is a handle to an open span. The zero SpanRef is valid and inert.
type SpanRef struct {
	t       *Trace
	id      int
	stacked bool
}

// Begin opens a span as a child of the innermost open Begin span (a root
// span when none is open). Spans opened with Begin nest lexically: callers
// must End them in reverse order, which the engine's defer discipline
// guarantees. Returns the zero SpanRef on a nil trace.
func (t *Trace) Begin(kind, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.startLocked(parent, kind, name)
	t.stack = append(t.stack, id)
	return SpanRef{t: t, id: id, stacked: true}
}

// BeginChild opens a span under an explicit parent without touching the
// nesting stack; goroutines (per-slice scan workers) use it so concurrent
// spans cannot corrupt the main thread's nesting. A zero parent yields a
// root span.
func (t *Trace) BeginChild(parent SpanRef, kind, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pid := -1
	if parent.t == t {
		pid = parent.id
	}
	return SpanRef{t: t, id: t.startLocked(pid, kind, name)}
}

// pclint:held — callers hold t.mu.
func (t *Trace) startLocked(parent int, kind, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Kind:   kind,
		Name:   name,
		Start:  time.Since(t.t0),
	})
	return id
}

// Active reports whether the ref points at a live trace. Instrumentation
// uses it to skip attribute computation (error formatting, snapshots) that
// would otherwise run on the disabled path.
func (s SpanRef) Active() bool { return s.t != nil }

// SetInt attaches an integer attribute. No-op on the zero SpanRef.
func (s SpanRef) SetInt(key string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Int: v})
	s.t.mu.Unlock()
}

// SetStr attaches a string attribute. No-op on the zero SpanRef.
func (s SpanRef) SetStr(key, v string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Str: v, IsStr: true})
	s.t.mu.Unlock()
}

// End closes the span, recording its duration. Spans opened with Begin are
// popped from the nesting stack. No-op on the zero SpanRef; ending twice
// freezes the first duration.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	if sp.Dur == 0 {
		sp.Dur = time.Since(s.t.t0) - sp.Start
		if sp.Dur <= 0 {
			sp.Dur = 1 // sub-resolution spans still render as closed
		}
	}
	if s.stacked {
		for i := len(s.t.stack) - 1; i >= 0; i-- {
			if s.t.stack[i] == s.id {
				s.t.stack = append(s.t.stack[:i], s.t.stack[i+1:]...)
				break
			}
		}
	}
	s.t.mu.Unlock()
}

// FinishOpen ends every span still open (error and cancellation paths
// unwind without running the usual defer discipline past the failure point)
// and, when errMsg is non-empty, attaches it as an "error" attribute on the
// first root span so the retained trace records what killed the query. Safe
// to call on a completed trace: closed spans keep their durations.
func (t *Trace) FinishOpen(errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.t0)
	for i := range t.spans {
		if t.spans[i].Dur == 0 {
			d := now - t.spans[i].Start
			if d <= 0 {
				d = 1
			}
			t.spans[i].Dur = d
		}
	}
	t.stack = t.stack[:0]
	if errMsg != "" {
		for i := range t.spans {
			if t.spans[i].Parent < 0 {
				t.spans[i].Attrs = append(t.spans[i].Attrs, Attr{Key: "error", Str: errMsg, IsStr: true})
				break
			}
		}
	}
}

// TakeSpans detaches and returns the recorded spans without copying: the
// trace is empty afterwards and the caller owns the slice. This is the O(1)
// pointer move the post-completion retention handoff relies on — a query's
// spans migrate into the TraceStore without per-span work.
func (t *Trace) TakeSpans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = nil
	t.stack = t.stack[:0]
	return spans
}

// NumSpans returns the number of spans recorded so far.
func (t *Trace) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of all recorded spans in creation order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		out[i].Attrs = append([]Attr(nil), t.spans[i].Attrs...)
	}
	return out
}
