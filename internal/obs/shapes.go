package obs

import (
	"sort"
	"sync"
	"time"
)

// ShapeStats aggregates per-query resource attribution by query shape — the
// plan cache's normalized-SQL key — into a bounded top-K ledger. The paper's
// premise (§2) is that fleets are dominated by repeated shapes; this is the
// table that says which of those shapes actually cost CPU and allocation,
// which is what the workload-driven advisor and the soak harness's SLO gates
// consume. Served as pc.query_shapes.
//
// The map is bounded: when full, observing a brand-new shape evicts the
// retained shape with the least total CPU (the one least likely to matter to
// a heavy-hitter ranking) and counts the eviction.

// DefaultShapeCapacity bounds the shape ledger unless configured otherwise.
const DefaultShapeCapacity = 256

// shapeEntry accumulates one shape's ledger.
type shapeEntry struct {
	id    string
	key   string
	class string

	calls  int64
	errors int64

	cpuMicros    int64
	wallMicros   int64
	allocObjects int64
	allocBytes   int64
	rows         int64
	hits         int64

	// cpu tracks the per-call CPU distribution (p50/p99) with retained-trace
	// exemplars, reusing the SLO histogram machinery.
	cpu *SLOHistogram

	exemplar int64 // last retained trace id, -1 when none
}

// ShapeStats is the bounded shape ledger. Safe for concurrent use; a nil
// *ShapeStats drops every observation.
type ShapeStats struct {
	mu        sync.Mutex
	shapes    map[string]*shapeEntry // guarded by mu, keyed by shape key
	capacity  int
	evictions int64 // guarded by mu
}

// NewShapeStats builds a ledger bounded to capacity shapes (<= 0 selects
// DefaultShapeCapacity).
func NewShapeStats(capacity int) *ShapeStats {
	if capacity <= 0 {
		capacity = DefaultShapeCapacity
	}
	return &ShapeStats{
		shapes:   make(map[string]*shapeEntry, capacity),
		capacity: capacity,
	}
}

// Observe folds one executed statement into its shape's ledger. It adds the
// same CPUMicros the query log stores, so summing cpu_us over pc.query_log by
// shape_id reproduces pc.query_shapes.cpu_us exactly (while both fit the
// log's window). Events without a shape key (hand-built plans) are dropped.
func (s *ShapeStats) Observe(ev *QueryEvent) {
	if s == nil || ev.ShapeKey == "" {
		return
	}
	s.mu.Lock()
	e, ok := s.shapes[ev.ShapeKey]
	if !ok {
		if len(s.shapes) >= s.capacity {
			s.evictMinLocked()
		}
		e = &shapeEntry{id: ev.ShapeID, key: ev.ShapeKey, cpu: &SLOHistogram{}, exemplar: -1}
		s.shapes[ev.ShapeKey] = e
	}
	e.calls++
	if ev.Error != "" {
		e.errors++
	}
	if ev.CacheHit {
		e.hits++
	}
	e.class = ev.Class
	e.cpuMicros += ev.CPUMicros
	e.wallMicros += ev.WallMicros
	e.allocObjects += ev.AllocObjects
	e.allocBytes += ev.AllocBytes
	e.rows += ev.Rows
	if ev.Retained {
		e.exemplar = ev.Seq
	}
	cpu := e.cpu
	s.mu.Unlock()
	// The histogram has its own lock; observing outside s.mu keeps the
	// ledger lock's hold time to the counter folds above.
	cpu.Observe(time.Duration(ev.CPUMicros)*time.Microsecond, ev.Seq, ev.Retained)
}

// evictMinLocked drops the retained shape with the least total CPU.
// pclint:held — callers hold s.mu.
func (s *ShapeStats) evictMinLocked() {
	var victim string
	min := int64(-1)
	for k, e := range s.shapes {
		if min < 0 || e.cpuMicros < min {
			min = e.cpuMicros
			victim = k
		}
	}
	if victim != "" {
		delete(s.shapes, victim)
		s.evictions++
	}
}

// ShapeRow is one pc.query_shapes row: a shape's accumulated resource ledger.
type ShapeRow struct {
	ID    string
	Key   string
	Class string

	Calls  int64
	Errors int64

	CPUMicros    int64 // total attributed CPU across calls
	P50CPUMicros int64
	P99CPUMicros int64
	WallMicros   int64
	AllocObjects int64
	AllocBytes   int64
	Rows         int64

	// HitRate is the fraction of calls whose scans hit the predicate cache.
	HitRate float64

	// ExemplarTraceID joins pc.traces.trace_id (-1 when no retained trace).
	ExemplarTraceID int64
}

// Snapshot returns the retained shapes ranked by total CPU, heaviest first
// (ties broken by calls, then key, so the order is deterministic).
func (s *ShapeStats) Snapshot() []ShapeRow {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]ShapeRow, 0, len(s.shapes))
	hists := make([]*SLOHistogram, 0, len(s.shapes))
	for _, e := range s.shapes {
		r := ShapeRow{
			ID:              e.id,
			Key:             e.key,
			Class:           e.class,
			Calls:           e.calls,
			Errors:          e.errors,
			CPUMicros:       e.cpuMicros,
			WallMicros:      e.wallMicros,
			AllocObjects:    e.allocObjects,
			AllocBytes:      e.allocBytes,
			Rows:            e.rows,
			ExemplarTraceID: e.exemplar,
		}
		if e.calls > 0 {
			r.HitRate = float64(e.hits) / float64(e.calls)
		}
		out = append(out, r)
		hists = append(hists, e.cpu)
	}
	s.mu.Unlock()
	// Quantiles take each histogram's own lock; computing them outside s.mu
	// keeps Observe callers from stalling behind a snapshot.
	for i := range out {
		out[i].P50CPUMicros = hists[i].Quantile(0.50).Microseconds()
		out[i].P99CPUMicros = hists[i].Quantile(0.99).Microseconds()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUMicros != out[j].CPUMicros {
			return out[i].CPUMicros > out[j].CPUMicros
		}
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len returns the number of retained shapes.
func (s *ShapeStats) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shapes)
}

// Evictions returns how many shapes were evicted to stay under capacity.
func (s *ShapeStats) Evictions() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
