package obs

import (
	"fmt"
	"testing"
	"time"
)

// traceOf returns a live trace with n closed root spans.
func traceOf(n int) *Trace {
	tr := NewTrace()
	for i := 0; i < n; i++ {
		tr.Begin(KindPhase, "s").End()
	}
	return tr
}

// offer submits an n-span trace for the statement (id, shape, error, slow)
// and reports whether the store kept it.
func offer(ts *TraceStore, id int64, shape, errMsg string, slow bool, n int) bool {
	ev := QueryEvent{Seq: id, ShapeID: shape, Error: errMsg, Slow: slow}
	ts.Offer(&ev, traceOf(n))
	return ev.Retained
}

func TestTraceStoreAdmission(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{SpanBudget: 100, ShapeQuota: 2})

	if !offer(ts, 1, "point:t", "", false, 3) {
		t.Fatal("first trace of a shape should be head-sampled")
	}
	if !offer(ts, 2, "point:t", "", false, 3) {
		t.Fatal("second trace within the shape quota should be kept")
	}
	if offer(ts, 3, "point:t", "", false, 3) {
		t.Fatal("third trace of the shape should be dropped (quota 2)")
	}
	if !offer(ts, 4, "point:u", "", false, 3) {
		t.Fatal("a different shape has its own quota")
	}
	if !offer(ts, 5, "point:t", "boom", false, 3) {
		t.Fatal("errored traces bypass the shape quota")
	}
	if !offer(ts, 6, "point:t", "", true, 3) {
		t.Fatal("slow traces bypass the shape quota")
	}
	if offer(ts, 7, "point:v", "boom", true, 0) {
		t.Fatal("a trace without spans must not be retained")
	}
	nilTrace := QueryEvent{Seq: 8, Error: "boom"}
	if ts.Offer(&nilTrace, nil); nilTrace.Retained {
		t.Fatal("nil trace must not be retained")
	}

	wantReason := map[int64]string{
		1: RetainSampled, 2: RetainSampled, 4: RetainSampled,
		5: RetainError, 6: RetainSlow,
	}
	got := ts.Traces()
	if len(got) != len(wantReason) {
		t.Fatalf("retained %d traces, want %d", len(got), len(wantReason))
	}
	for _, rt := range got {
		if rt.Reason != wantReason[rt.Seq] {
			t.Errorf("trace %d reason = %q, want %q", rt.Seq, rt.Reason, wantReason[rt.Seq])
		}
	}
	if rt := ts.Trace(5); rt == nil || rt.Error != "boom" {
		t.Fatalf("Trace(5) = %+v", rt)
	}
	if ts.Trace(3) != nil {
		t.Fatal("dropped trace should not be findable")
	}
}

func TestTraceStoreEvictionFreesQuota(t *testing.T) {
	// Budget of 4 spans, quota 1: the second same-shape offer only fits after
	// the first is evicted, at which point the quota slot is free again.
	ts := NewTraceStore(TraceStoreConfig{SpanBudget: 4, ShapeQuota: 1})
	if !offer(ts, 1, "a", "", false, 3) {
		t.Fatal("first offer")
	}
	if offer(ts, 2, "a", "", false, 3) {
		// 3+3 > 4 would evict trace 1 first — but quota check happens before
		// eviction, and trace 1 still occupies the shape slot.
		t.Fatal("same-shape offer at quota should be dropped even when eviction could free it")
	}
	if !offer(ts, 3, "b", "", false, 4) {
		t.Fatal("budget-filling offer of a new shape should evict and fit")
	}
	if n := ts.Stats().Retained; n != 1 {
		t.Fatalf("retained = %d, want 1", n)
	}
	// Trace 1 was evicted, freeing shape a's quota slot.
	if !offer(ts, 4, "a", "", false, 1) {
		t.Fatal("quota slot should be free after eviction")
	}
}

func TestTraceStoreSpanBudgetInvariant(t *testing.T) {
	const budget = 64
	ts := NewTraceStore(TraceStoreConfig{SpanBudget: budget, ShapeQuota: 4})
	for i := 0; i < 5000; i++ {
		// Mix shapes, sizes, errors and slow traces; every 7th is oversized.
		n := 1 + i%9
		if i%97 == 0 {
			n = budget + 10 // oversized: must be truncated, not rejected
		}
		errMsg := ""
		if i%11 == 0 {
			errMsg = "x"
		}
		offer(ts, int64(i), fmt.Sprintf("shape-%d", i%17), errMsg, i%13 == 0, n)
		if sc := ts.SpanCount(); sc > budget {
			t.Fatalf("iteration %d: span count %d exceeds budget %d", i, sc, budget)
		}
	}
	st := ts.Stats()
	if st.SpanCount > st.SpanBudget {
		t.Fatalf("final stats: %+v", st)
	}
	if st.Offered != 5000 {
		t.Fatalf("offered = %d", st.Offered)
	}
	if st.Kept == 0 || st.Evicted == 0 {
		t.Fatalf("kept=%d evicted=%d: stress run should both keep and evict", st.Kept, st.Evicted)
	}
	// The ring contents must agree with the counter.
	total := 0
	for _, rt := range ts.Traces() {
		total += len(rt.Spans)
	}
	if total != st.SpanCount {
		t.Fatalf("ring holds %d spans, counter says %d", total, st.SpanCount)
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{SpanBudget: 128, ShapeQuota: 2})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				errMsg := ""
				if i%5 == 0 {
					errMsg = "e"
				}
				offer(ts, int64(g*1000+i), fmt.Sprintf("s%d", i%3), errMsg, false, 1+i%4)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("timeout")
		}
		if sc := ts.SpanCount(); sc > 128 {
			t.Fatalf("span count %d over budget", sc)
		}
	}
	_ = ts.Traces()
	_ = ts.Stats()
}

func TestTraceStoreNil(t *testing.T) {
	var ts *TraceStore
	if offer(ts, 0, "", "boom", false, 1) {
		t.Fatal("nil store retained a trace")
	}
	if ts.Traces() != nil || ts.Trace(0) != nil || ts.SpanCount() != 0 {
		t.Fatal("nil store should be empty")
	}
	if ts.Stats() != (TraceStoreStats{}) {
		t.Fatal("nil store stats should be zero")
	}
}

func TestTraceTakeSpansAndFinishOpen(t *testing.T) {
	tr := NewTrace()
	a := tr.Begin(KindPhase, "parse")
	a.End()
	b := tr.Begin(KindPhase, "execute") // left open: error path
	_ = b
	tr.FinishOpen("exec blew up")
	sp := tr.TakeSpans()
	if tr.NumSpans() != 0 {
		t.Fatalf("trace should be empty after TakeSpans, has %d", tr.NumSpans())
	}
	if len(sp) != 2 {
		t.Fatalf("took %d spans, want 2", len(sp))
	}
	for _, s := range sp {
		if s.Dur == 0 {
			t.Fatalf("span %q still open after FinishOpen", s.Name)
		}
	}
	if msg, ok := sp[0].StrAttr("error"); !ok || msg != "exec blew up" {
		t.Fatalf("root span error attr = %q, %v", msg, ok)
	}
}
