package obs

import (
	"sync"
	"time"
)

// Query classes the SLO layer tracks. Every query lands in exactly one
// class; each class is split by predicate-cache outcome (hit vs miss), so a
// p99 regression on the cache-miss path cannot hide behind fast hits.
const (
	ClassPoint = "point" // single-point equality scans
	ClassRange = "range" // range / general filtered scans and joins
	ClassAgg   = "agg"   // aggregations
	ClassDML   = "dml"   // DeleteWhere / UpdateWhere statements and Vacuum
)

// SLOClasses lists the tracked classes in display order.
var SLOClasses = []string{ClassPoint, ClassRange, ClassAgg, ClassDML}

// sloBuckets is the number of finite latency buckets: powers of two from
// 1µs to 2^26µs (~67s). Fixed log-scaled bounds keep Observe O(log buckets)
// with zero allocation and make quantile error bounded by one octave.
const sloBuckets = 27

// sloExemplar links a bucket to a retained trace.
type sloExemplar struct {
	traceID int64
	micros  int64
	set     bool
}

// SLOHistogram is a fixed-bucket log₂-scaled latency histogram with
// per-bucket exemplars. Bucket i counts observations in (2^(i-1), 2^i]
// microseconds (bucket 0 covers (0, 1µs]); one overflow bucket catches the
// rest. Safe for concurrent use; nil-safe like the rest of the package.
type SLOHistogram struct {
	mu        sync.Mutex
	counts    [sloBuckets + 1]uint64      // guarded by mu
	exemplars [sloBuckets + 1]sloExemplar // guarded by mu
	sumMicros int64                       // guarded by mu
	maxMicros int64                       // guarded by mu
	n         uint64                      // guarded by mu
}

// sloBucketIndex maps a duration to its bucket.
func sloBucketIndex(us int64) int {
	if us <= 1 {
		return 0
	}
	i, bound := 0, int64(1)
	for i < sloBuckets && us > bound {
		i++
		bound <<= 1
	}
	return i // sloBuckets == overflow when us exceeds the last bound
}

// sloBucketBounds returns the (lo, hi] microsecond range of bucket i; the
// overflow bucket reports hi = -1 (unbounded).
func sloBucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	if i >= sloBuckets {
		return 1 << (sloBuckets - 1), -1
	}
	return 1 << (i - 1), 1 << i
}

// Observe records one latency. traceID is attached as the bucket's exemplar
// when retained is true — exemplars only ever point at traces the store
// actually kept, and the latest retained observation wins so exemplars stay
// resolvable as old traces age out of the store.
func (h *SLOHistogram) Observe(d time.Duration, traceID int64, retained bool) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := sloBucketIndex(us)
	h.mu.Lock()
	h.counts[i]++
	h.sumMicros += us
	if us > h.maxMicros {
		h.maxMicros = us
	}
	h.n++
	if retained {
		h.exemplars[i] = sloExemplar{traceID: traceID, micros: us, set: true}
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *SLOHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile estimates the q-quantile (0 < q <= 1). The estimate interpolates
// linearly inside the chosen bucket, so its error is bounded by that
// bucket's width (one octave: the true value is within a factor of two).
// The overflow bucket reports the observed maximum. Returns 0 when empty.
func (h *SLOHistogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// pclint:held — callers hold h.mu.
func (h *SLOHistogram) quantileLocked(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i := 0; i <= sloBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := sloBucketBounds(i)
			if hi < 0 || int64(float64(hi)) > h.maxMicros {
				hi = h.maxMicros // never report beyond the observed max
			}
			if hi < lo {
				lo = hi
			}
			frac := float64(rank-cum) / float64(c)
			us := float64(lo) + frac*float64(hi-lo)
			return time.Duration(us) * time.Microsecond
		}
		cum += c
	}
	return time.Duration(h.maxMicros) * time.Microsecond
}

// TailExemplar returns the exemplar of the highest occupied bucket that has
// one: the retained trace closest to the distribution's tail.
func (h *SLOHistogram) TailExemplar() (traceID int64, d time.Duration, ok bool) {
	if h == nil {
		return 0, 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := sloBuckets; i >= 0; i-- {
		if h.exemplars[i].set {
			return h.exemplars[i].traceID, time.Duration(h.exemplars[i].micros) * time.Microsecond, true
		}
	}
	return 0, 0, false
}

// Exemplar returns bucket i's exemplar, if set (tests and pc.slo use it).
func (h *SLOHistogram) Exemplar(i int) (traceID int64, d time.Duration, ok bool) {
	if h == nil || i < 0 || i > sloBuckets {
		return 0, 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.exemplars[i]
	return e.traceID, time.Duration(e.micros) * time.Microsecond, e.set
}

// Snapshot renders the histogram as a metrics-registry HistSnapshot in
// seconds (Prometheus convention); pass it to Metrics.NewHistogramFunc.
func (h *SLOHistogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: make([]float64, sloBuckets),
		Counts: make([]uint64, sloBuckets+1),
		Sum:    float64(h.sumMicros) / 1e6,
		N:      h.n,
	}
	for i := 0; i < sloBuckets; i++ {
		_, hi := sloBucketBounds(i)
		s.Bounds[i] = float64(hi) / 1e6
	}
	copy(s.Counts, h.counts[:])
	return s
}

// sloKey identifies one tracked histogram.
type sloKey struct {
	class string
	hit   bool
}

// SLOSet holds one SLOHistogram per (class, cache-outcome) pair. The pair
// map is built once at construction and never mutated, so Observe takes no
// set-level lock.
type SLOSet struct {
	hists map[sloKey]*SLOHistogram // immutable after NewSLOSet
}

// NewSLOSet builds histograms for every class in SLOClasses × {hit, miss}.
func NewSLOSet() *SLOSet {
	s := &SLOSet{hists: make(map[sloKey]*SLOHistogram, 2*len(SLOClasses))}
	for _, c := range SLOClasses {
		s.hists[sloKey{c, false}] = &SLOHistogram{}
		s.hists[sloKey{c, true}] = &SLOHistogram{}
	}
	return s
}

// Observe records one query latency under its class and cache outcome.
// Unknown classes fall into ClassRange rather than being dropped.
func (s *SLOSet) Observe(class string, hit bool, d time.Duration, traceID int64, retained bool) {
	if s == nil {
		return
	}
	h, ok := s.hists[sloKey{class, hit}]
	if !ok {
		h = s.hists[sloKey{ClassRange, hit}]
	}
	h.Observe(d, traceID, retained)
}

// Hist returns the histogram for (class, hit), or nil.
func (s *SLOSet) Hist(class string, hit bool) *SLOHistogram {
	if s == nil {
		return nil
	}
	return s.hists[sloKey{class, hit}]
}

// SLOReport is one row of pc.slo: the percentile summary of one (class,
// cache-outcome) histogram plus its tail exemplar.
type SLOReport struct {
	Class    string
	CacheHit bool
	Count    uint64
	P50      time.Duration
	P99      time.Duration
	P999     time.Duration
	Max      time.Duration
	// ExemplarTraceID joins against pc.traces.trace_id (0 when no retained
	// trace has landed in an occupied bucket yet).
	ExemplarTraceID int64
	ExemplarDur     time.Duration
}

// Snapshot reports every tracked histogram in class order, misses before
// hits. Empty histograms are included (count 0) so dashboards see a stable
// row set.
func (s *SLOSet) Snapshot() []SLOReport {
	if s == nil {
		return nil
	}
	out := make([]SLOReport, 0, 2*len(SLOClasses))
	for _, c := range SLOClasses {
		for _, hit := range []bool{false, true} {
			h := s.hists[sloKey{c, hit}]
			h.mu.Lock()
			r := SLOReport{
				Class:    c,
				CacheHit: hit,
				Count:    h.n,
				P50:      h.quantileLocked(0.50),
				P99:      h.quantileLocked(0.99),
				P999:     h.quantileLocked(0.999),
				Max:      time.Duration(h.maxMicros) * time.Microsecond,
			}
			h.mu.Unlock()
			if id, d, ok := h.TailExemplar(); ok {
				r.ExemplarTraceID = id
				r.ExemplarDur = d
			}
			out = append(out, r)
		}
	}
	return out
}

// RegisterMetrics exposes every class histogram on m as
// predcache_slo_<class>_<hit|miss>_seconds, scraped lazily: the hot path
// pays only the SLOHistogram.Observe it already does.
func (s *SLOSet) RegisterMetrics(m *Metrics) {
	if s == nil {
		return
	}
	for _, c := range SLOClasses {
		for _, hit := range []bool{false, true} {
			outcome := "miss"
			if hit {
				outcome = "hit"
			}
			h := s.hists[sloKey{c, hit}]
			m.NewHistogramFunc(
				"predcache_slo_"+c+"_"+outcome+"_seconds",
				"Query wall time for class "+c+" (cache "+outcome+").",
				h.Snapshot)
		}
	}
}
