package predcache

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"

	"github.com/predcache/predcache/internal/obs"
)

// pointQueryEvent is the event of a warm point query, as emit receives it.
func pointQueryEvent() obs.QueryEvent {
	ev := obs.QueryEvent{
		SQL:      "select id, val from t where id = 123456",
		ShapeKey: "select id , val from t where id = ?",
		Class:    obs.ClassPoint,
		Session:  "s1",
		Executed: true, CacheHit: true,
		WallMicros: 24, ParseMicros: 3, ExecMicros: 12, CPUMicros: 12,
		Rows: 1, RowsScanned: 1000, RowsQualified: 1, RowsDecoded: 2,
		BlocksAccessed: 2, BlocksKernel: 1, BlocksPrunedCache: 1999, CacheHits: 1,
		AllocObjects: 60, AllocBytes: 19000,
	}
	ev.ShapeID = obs.ShapeID(ev.ShapeKey)
	return ev
}

// pointQueryTrace records the spans of a warm point query: plan-cache and
// execute phases, one scan node, one slice, one cache lookup.
func pointQueryTrace() *obs.Trace {
	tr := obs.NewTrace()
	tr.Begin(obs.KindPhase, "plan-cache").End()
	ex := tr.Begin(obs.KindPhase, "execute")
	n := tr.Begin(obs.KindNode, "Scan t")
	tr.Begin(obs.KindCache, "cache lookup").End()
	tr.BeginChild(n, obs.KindSlice, "slice 0").End()
	n.End()
	ex.End()
	return tr
}

// TestEmitAllocs pins BenchmarkEmit's allocation figures: handing a prebuilt
// event to every sink allocates nothing when the trace store drops the trace
// and at most 2 objects when it admits it (the RetainedTrace, plus the error
// attribute on a failed statement's root span).
func TestEmitAllocs(t *testing.T) {
	db := Open(WithLogger(slog.New(slog.NewJSONHandler(io.Discard, nil))))
	db.EnableMetrics(NewMetrics())
	// The shape's head-sample quota admits DefaultShapeQuota traces: the
	// warm-up run and the measured ones.
	const runs = obs.DefaultShapeQuota - 1
	traces := make([]*obs.Trace, runs+1)
	for i := range traces {
		traces[i] = pointQueryTrace()
	}
	ev, i := pointQueryEvent(), 0
	admit := testing.AllocsPerRun(runs, func() {
		e := ev
		db.emit(&e, traces[i])
		if !e.Retained {
			t.Fatal("trace not admitted")
		}
		i++
	})
	tr := pointQueryTrace()
	drop := testing.AllocsPerRun(100, func() {
		e := ev
		db.emit(&e, tr)
		if e.Retained {
			t.Fatal("trace admitted past the shape's quota")
		}
	})
	t.Logf("emit: %v allocs with the trace dropped, %v admitted", drop, admit)
	if drop != 0 || admit > 2 {
		t.Fatalf("emit allocates %v objects when the trace is dropped (want 0), %v when admitted (want <= 2)", drop, admit)
	}
}

// TestSnapshotPinAllocs: every statement pins its snapshot in execute and
// unpins it when execution returns, and neither allocates, beside another
// statement pinned at the same snapshot or at an older one.
func TestSnapshotPinAllocs(t *testing.T) {
	db := Open()
	older := db.cat.Pin()
	defer db.cat.Unpin(older)
	same := testing.AllocsPerRun(100, func() { db.cat.Unpin(db.cat.Pin()) })
	_ = db.cat.Commit(func(uint64) error { return nil }) // apply cannot fail
	newer := testing.AllocsPerRun(100, func() { db.cat.Unpin(db.cat.Pin()) })
	t.Logf("pin+unpin: %v allocs at a pinned snapshot, %v at a new one", same, newer)
	if same != 0 || newer != 0 {
		t.Fatalf("pin+unpin allocates %v objects at a pinned snapshot and %v at a new one, want 0", same, newer)
	}
}

// BenchmarkSnapshotPin prices the snapshot registry every statement passes
// through, Pin then Unpin, from 1 and from 4 goroutines at once; ns/op is
// wall time per pair (DESIGN.md §9 carries the figures).
func BenchmarkSnapshotPin(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			db := Open()
			b.ReportAllocs()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						db.cat.Unpin(db.cat.Pin())
					}
				}((b.N + w) / g)
			}
			wg.Wait()
		})
	}
}

// BenchmarkEmit prices the per-statement observability tail sink by sink:
// one prebuilt event of a warm point query, handed to each sink alone and
// then to emit as a whole (DESIGN.md §16 carries the resulting table). The
// trace store is measured in both its cases: "drop" is the steady state (the
// shape's head-sample quota is full, so Offer decides and returns) and
// "admit" an errored statement, which is always kept — finalize, detach the
// spans, allocate the RetainedTrace, evict the oldest when over budget.
func BenchmarkEmit(b *testing.B) {
	ev := pointQueryEvent()
	failed := ev
	failed.Error = "boom"
	open := func() *DB {
		db := Open(WithLogger(slog.New(slog.NewJSONHandler(io.Discard, nil))))
		db.EnableMetrics(NewMetrics())
		for i := 0; i < obs.DefaultShapeQuota; i++ {
			e := ev
			db.traces.Offer(&e, pointQueryTrace()) // fill the shape's quota
		}
		return db
	}
	each := func(name string, fn func(db *DB, e *obs.QueryEvent)) {
		b.Run(name, func(b *testing.B) {
			db := open()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ev
				e.Seq = int64(i)
				fn(db, &e)
			}
		})
	}
	tr := pointQueryTrace()
	each("trace-drop", func(db *DB, e *obs.QueryEvent) { db.traces.Offer(e, tr) })
	b.Run("trace-admit", func(b *testing.B) {
		db := open()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, t := failed, pointQueryTrace()
			e.Seq = int64(i)
			b.StartTimer()
			db.traces.Offer(&e, t)
		}
	})
	each("query-log", func(db *DB, e *obs.QueryEvent) { db.qlog.Append(e) })
	each("slo", func(db *DB, e *obs.QueryEvent) {
		db.slo.Observe(e.Class, e.CacheHit, e.Wall(), e.Seq, e.Retained)
	})
	each("shape-ledger", func(db *DB, e *obs.QueryEvent) { db.shapes.Observe(e) })
	each("metrics", func(db *DB, e *obs.QueryEvent) { db.metrics.Load().record(e) })
	each("emit", func(db *DB, e *obs.QueryEvent) { db.emit(e, tr) })
	each("emit-failed-logged", func(db *DB, e *obs.QueryEvent) {
		e.Error = "boom"
		db.emit(e, nil)
	})
}
