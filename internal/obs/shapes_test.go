package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestShapeStatsAggregates(t *testing.T) {
	s := NewShapeStats(0)
	// Shape A: 3 calls, one a cache hit, one an error.
	for i, ev := range []QueryEvent{
		{CPUMicros: 100, AllocObjects: 10, AllocBytes: 1000, Rows: 5, CacheHit: true},
		{CPUMicros: 300, AllocObjects: 20, AllocBytes: 2000, Rows: 7},
		{CPUMicros: 200, AllocObjects: 30, AllocBytes: 3000, Rows: 9, Error: "boom"},
	} {
		ev.ShapeKey = "select a"
		ev.ShapeID = ShapeID(ev.ShapeKey)
		ev.Class = "agg"
		ev.WallMicros = ev.CPUMicros + 50
		ev.Seq = int64(i)
		s.Observe(&ev)
	}
	// Shape B: 1 cheap call.
	s.Observe(&QueryEvent{
		ShapeKey: "select b", ShapeID: ShapeID("select b"), Class: "point",
		CPUMicros: 50, WallMicros: 60, AllocObjects: 1, AllocBytes: 64, Rows: 1,
		Seq: 7, Retained: true,
	})

	rows := s.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("got %d shapes, want 2", len(rows))
	}
	a, b := rows[0], rows[1]
	if a.Key != "select a" || b.Key != "select b" {
		t.Fatalf("CPU-descending order broken: %q then %q", a.Key, b.Key)
	}
	if a.Calls != 3 || a.Errors != 1 || a.CPUMicros != 600 || a.WallMicros != 750 {
		t.Fatalf("shape A ledger = %+v", a)
	}
	if a.AllocObjects != 60 || a.AllocBytes != 6000 || a.Rows != 21 {
		t.Fatalf("shape A allocation ledger = %+v", a)
	}
	if got, want := a.HitRate, 1.0/3.0; got != want {
		t.Fatalf("shape A hit rate = %v, want %v", got, want)
	}
	if a.ID != ShapeID("select a") || a.Class != "agg" {
		t.Fatalf("shape A identity = %q/%q", a.ID, a.Class)
	}
	if a.ExemplarTraceID != -1 {
		t.Fatalf("shape A exemplar = %d, want -1 (no retained trace)", a.ExemplarTraceID)
	}
	if a.P50CPUMicros <= 0 || a.P99CPUMicros < a.P50CPUMicros {
		t.Fatalf("shape A quantiles p50=%d p99=%d", a.P50CPUMicros, a.P99CPUMicros)
	}
	if b.Calls != 1 || b.CPUMicros != 50 || b.ExemplarTraceID != 7 {
		t.Fatalf("shape B ledger = %+v", b)
	}
}

func TestShapeStatsEvictsMinCPU(t *testing.T) {
	s := NewShapeStats(2)
	s.Observe(&QueryEvent{ShapeKey: "expensive", CPUMicros: 1000})
	s.Observe(&QueryEvent{ShapeKey: "cheap", CPUMicros: 1})
	s.Observe(&QueryEvent{ShapeKey: "medium", CPUMicros: 500})
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions())
	}
	rows := s.Snapshot()
	if rows[0].Key != "expensive" || rows[1].Key != "medium" {
		t.Fatalf("retained %q/%q, want expensive/medium (cheap evicted)", rows[0].Key, rows[1].Key)
	}
}

func TestShapeStatsTieBreakDeterministic(t *testing.T) {
	s := NewShapeStats(0)
	for _, k := range []string{"zz", "aa", "mm"} {
		s.Observe(&QueryEvent{ShapeKey: k, CPUMicros: 100})
	}
	rows := s.Snapshot()
	if rows[0].Key != "aa" || rows[1].Key != "mm" || rows[2].Key != "zz" {
		t.Fatalf("tie order = %q %q %q, want aa mm zz", rows[0].Key, rows[1].Key, rows[2].Key)
	}
}

func TestShapeStatsNilAndEmptyKey(t *testing.T) {
	var s *ShapeStats
	s.Observe(&QueryEvent{ShapeKey: "x"}) // must not panic
	if s.Snapshot() != nil || s.Len() != 0 || s.Evictions() != 0 {
		t.Fatal("nil ShapeStats retained something")
	}
	s2 := NewShapeStats(0)
	s2.Observe(&QueryEvent{})
	if s2.Len() != 0 {
		t.Fatal("empty key was retained")
	}
}

func TestShapeStatsConcurrent(t *testing.T) {
	s := NewShapeStats(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Observe(&QueryEvent{
					ShapeKey:  fmt.Sprintf("shape-%d", (g+i)%16),
					CPUMicros: int64(i),
				})
				if i%50 == 0 {
					s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("capacity exceeded: %d shapes", s.Len())
	}
	var calls int64
	for _, r := range s.Snapshot() {
		calls += r.Calls
	}
	if calls == 0 {
		t.Fatal("no observations retained")
	}
}

func TestShapeIDStable(t *testing.T) {
	a, b := ShapeID("select * from t"), ShapeID("select * from t")
	if a != b {
		t.Fatalf("ShapeID not deterministic: %q vs %q", a, b)
	}
	if a == ShapeID("select * from u") {
		t.Fatal("distinct keys collided")
	}
	if len(a) != 17 || a[0] != 's' {
		t.Fatalf("ShapeID format = %q, want s + 16 hex digits", a)
	}
}
