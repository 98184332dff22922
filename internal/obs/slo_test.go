package obs

import (
	"bytes"
	"log/slog"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile mirrors the histogram's rank definition on the raw values:
// the max(1, floor(q*n))-th smallest.
func exactQuantile(us []int64, q float64) int64 {
	s := append([]int64(nil), us...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q * float64(len(s)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// checkQuantileBound asserts the estimate is within one octave of the exact
// value (the log2-bucket guarantee), with 1µs of absolute slack for the
// sub-microsecond bucket.
func checkQuantileBound(t *testing.T, name string, est time.Duration, exact int64) {
	t.Helper()
	e := est.Microseconds()
	if e > 2*exact+1 || exact > 2*e+1 {
		t.Errorf("%s: estimate %dµs vs exact %dµs exceeds the factor-2 bound", name, e, exact)
	}
}

func TestSLOQuantileRandomDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"lognormal": func() int64 { return int64(1 + 100*rng.ExpFloat64()*rng.ExpFloat64()) },
		"heavytail": func() int64 {
			if rng.Intn(100) == 0 {
				return 1_000_000 + rng.Int63n(10_000_000)
			}
			return 10 + rng.Int63n(90)
		},
	}
	for name, gen := range dists {
		h := &SLOHistogram{}
		var us []int64
		for i := 0; i < 10000; i++ {
			v := gen()
			us = append(us, v)
			h.Observe(time.Duration(v)*time.Microsecond, int64(i), false)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			checkQuantileBound(t, name, h.Quantile(q), exactQuantile(us, q))
		}
	}
}

func TestSLOQuantileAdversarial(t *testing.T) {
	// All mass in one bucket: interpolation must stay within the bucket and
	// never exceed the observed max.
	h := &SLOHistogram{}
	for i := 0; i < 1000; i++ {
		h.Observe(1000*time.Microsecond, 0, false)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		got := h.Quantile(q).Microseconds()
		if got > 1000 {
			t.Fatalf("q=%v: estimate %dµs exceeds observed max 1000µs", q, got)
		}
		checkQuantileBound(t, "one-bucket", h.Quantile(q), 1000)
	}

	// Bimodal: fast mode and slow mode four decades apart. p50 must report
	// the fast mode, p99 the slow mode — a mean-based summary would blur both.
	b := &SLOHistogram{}
	var us []int64
	for i := 0; i < 500; i++ {
		b.Observe(10*time.Microsecond, 0, false)
		us = append(us, 10)
	}
	for i := 0; i < 500; i++ {
		b.Observe(100_000*time.Microsecond, 0, false)
		us = append(us, 100_000)
	}
	checkQuantileBound(t, "bimodal-p50", b.Quantile(0.5), exactQuantile(us, 0.5))
	checkQuantileBound(t, "bimodal-p99", b.Quantile(0.99), exactQuantile(us, 0.99))
	if p50 := b.Quantile(0.5).Microseconds(); p50 > 20 {
		t.Fatalf("bimodal p50 %dµs should sit in the fast mode", p50)
	}
	if p99 := b.Quantile(0.99).Microseconds(); p99 < 50_000 {
		t.Fatalf("bimodal p99 %dµs should sit in the slow mode", p99)
	}

	// Empty and single-observation histograms.
	var e SLOHistogram
	if e.Quantile(0.99) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	one := &SLOHistogram{}
	one.Observe(42*time.Microsecond, 0, false)
	checkQuantileBound(t, "single", one.Quantile(0.5), 42)
	if max := one.Quantile(1).Microseconds(); max > 42 {
		t.Fatalf("single-value max estimate %dµs exceeds the observation", max)
	}
}

func TestSLOExemplarReplacement(t *testing.T) {
	h := &SLOHistogram{}
	d := 100 * time.Microsecond // one fixed bucket

	h.Observe(d, 1, true)
	if id, _, ok := h.Exemplar(sloBucketIndex(100)); !ok || id != 1 {
		t.Fatalf("exemplar = %d, %v; want 1", id, ok)
	}
	// Non-retained observations never displace a retained exemplar.
	h.Observe(d, 2, false)
	if id, _, _ := h.Exemplar(sloBucketIndex(100)); id != 1 {
		t.Fatalf("non-retained observation displaced the exemplar (got %d)", id)
	}
	// The latest retained observation wins, keeping the exemplar resolvable
	// as older traces age out of the store.
	h.Observe(d, 3, true)
	if id, _, _ := h.Exemplar(sloBucketIndex(100)); id != 3 {
		t.Fatalf("latest retained should win (got %d)", id)
	}
	// TailExemplar finds the highest occupied bucket with one.
	h.Observe(time.Second, 9, true)
	if id, _, ok := h.TailExemplar(); !ok || id != 9 {
		t.Fatalf("tail exemplar = %d, %v; want 9", id, ok)
	}
}

func TestSLOSetObserveAndSnapshot(t *testing.T) {
	s := NewSLOSet()
	s.Observe(ClassPoint, true, 50*time.Microsecond, 7, true)
	s.Observe(ClassPoint, false, 500*time.Microsecond, 8, false)
	s.Observe("mystery", false, time.Millisecond, 9, false) // folds into range

	snap := s.Snapshot()
	if len(snap) != 2*len(SLOClasses) {
		t.Fatalf("snapshot rows = %d, want %d", len(snap), 2*len(SLOClasses))
	}
	byKey := map[string]SLOReport{}
	for _, r := range snap {
		k := r.Class + ":miss"
		if r.CacheHit {
			k = r.Class + ":hit"
		}
		byKey[k] = r
	}
	if r := byKey["point:hit"]; r.Count != 1 || r.ExemplarTraceID != 7 {
		t.Fatalf("point:hit = %+v", r)
	}
	if r := byKey["range:miss"]; r.Count != 1 {
		t.Fatalf("unknown class should fold into range:miss, got %+v", r)
	}
	if r := byKey["dml:miss"]; r.Count != 0 {
		t.Fatalf("untouched class should report zero, got %+v", r)
	}
}

func TestSLOPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	s := NewSLOSet()
	s.RegisterMetrics(m)
	for i := 0; i < 50; i++ {
		s.Observe(ClassRange, false, time.Duration(i)*time.Millisecond, int64(i), false)
	}
	s.Observe(ClassAgg, true, time.Second, 1, true)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"predcache_slo_range_miss_seconds_bucket",
		"predcache_slo_range_miss_seconds_sum",
		"predcache_slo_range_miss_seconds_count 50",
		"predcache_slo_agg_hit_seconds_count 1",
		`le="+Inf"`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRuntimeCollector(t *testing.T) {
	gets, news := int64(0), int64(0)
	c := StartRuntimeCollector(time.Hour, func() (int64, int64) { gets++; news++; return gets, news }, nil)
	defer c.Stop()

	if len(c.Samples()) != 1 {
		t.Fatalf("collector should sample once at start, got %d", len(c.Samples()))
	}
	s := c.SampleNow()
	if s.Goroutines <= 0 || s.HeapAllocBytes <= 0 {
		t.Fatalf("implausible sample %+v", s)
	}
	if s.PoolGets == 0 {
		t.Fatal("pool counters not wired")
	}
	if got := c.Last(); got.TSMicros != s.TSMicros {
		t.Fatalf("Last = %+v, want the sample just taken", got)
	}
	if len(c.Samples()) != 2 {
		t.Fatalf("samples = %d, want 2", len(c.Samples()))
	}

	m := NewMetrics()
	RegisterSamplerMetrics(m, func() *RuntimeCollector { return c })
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("runtime exposition invalid: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("predcache_runtime_goroutines")) {
		t.Fatal("runtime gauges missing from exposition")
	}

	c.Stop() // idempotent
	var nilC *RuntimeCollector
	nilC.Stop()
	if nilC.Samples() != nil || nilC.Last() != (RuntimeSample{}) || nilC.SampleNow() != (RuntimeSample{}) {
		t.Fatal("nil collector should be inert")
	}
}

func TestLoggerCorrelation(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewJSONHandler(&buf, nil))
	l.With("query_id", 17, "trace_id", 17).Warn("slow query", "wall_us", int64(1234))
	line := buf.String()
	for _, want := range []string{`"query_id":17`, `"trace_id":17`, `"slow query"`, `"wall_us":1234`} {
		if !bytes.Contains([]byte(line), []byte(want)) {
			t.Errorf("log line missing %s: %s", want, line)
		}
	}
}
