package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceNesting(t *testing.T) {
	tr := NewTrace()
	root := tr.Begin(KindPhase, "execute")
	child := tr.Begin(KindNode, "Scan t")
	child.SetInt("rows.out", 42)
	grand := tr.Begin(KindCache, "cache lookup")
	grand.SetStr("outcome", "hit")
	grand.End()
	child.End()
	sib := tr.Begin(KindNode, "Agg")
	sib.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != spans[0].ID ||
		spans[2].Parent != spans[1].ID || spans[3].Parent != spans[0].ID {
		t.Fatalf("bad parentage: %+v", spans)
	}
	if v, ok := spans[1].IntAttr("rows.out"); !ok || v != 42 {
		t.Fatalf("rows.out attr = %d,%v", v, ok)
	}
	if s, ok := spans[2].StrAttr("outcome"); !ok || s != "hit" {
		t.Fatalf("outcome attr = %q,%v", s, ok)
	}
	for i, sp := range spans {
		if sp.Dur <= 0 {
			t.Fatalf("span %d not ended: %+v", i, sp)
		}
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Begin(KindNode, "x")
	sp.SetInt("a", 1)
	sp.SetStr("b", "c")
	sp.End()
	child := tr.BeginChild(sp, KindSlice, "y")
	child.End()
	if tr.Spans() != nil {
		t.Fatal("nil trace produced output")
	}
	// Zero SpanRef on a live trace must also be inert.
	live := NewTrace()
	live.BeginChild(SpanRef{}, KindSlice, "root-child")
	if spans := live.Spans(); len(spans) != 1 || spans[0].Parent != -1 {
		t.Fatalf("zero-parent child: %+v", spans)
	}
}

func TestTraceConcurrentChildren(t *testing.T) {
	tr := NewTrace()
	parent := tr.Begin(KindNode, "Scan")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.BeginChild(parent, KindSlice, "slice")
			sp.SetInt("i", int64(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	parent.End()
	spans := tr.Spans()
	if len(spans) != 9 {
		t.Fatalf("got %d spans, want 9", len(spans))
	}
	for _, sp := range spans[1:] {
		if sp.Parent != spans[0].ID {
			t.Fatalf("child parent = %d", sp.Parent)
		}
	}
}

func newTestRegistry() *Metrics {
	m := NewMetrics()
	c := m.NewCounter("test_queries_total", "Queries executed.")
	c.Add(3)
	m.NewCounterFunc("test_pull_total", "Pull counter.", func() int64 { return 7 })
	m.NewGauge("test_entries", "Entries right now.", func() float64 { return 2.5 })
	m.NewHistogramFunc("test_seconds", "Latencies.", func() HistSnapshot {
		return HistSnapshot{Bounds: []float64{0.01, 0.1, 1}, Counts: []uint64{1, 1, 0, 1}, Sum: 5.055, N: 3}
	})
	return m
}

func TestPrometheusExposition(t *testing.T) {
	m := newTestRegistry()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE test_queries_total counter",
		"test_queries_total 3",
		"test_pull_total 7",
		"test_entries 2.5",
		`test_seconds_bucket{le="0.1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	m := NewMetrics()
	a := m.NewCounter("x_total", "x")
	b := m.NewCounter("x_total", "x")
	if a != b {
		t.Fatal("re-registration returned a new counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	m.NewGauge("x_total", "x", func() float64 { return 0 })
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad name":         "9bad_name 1\n",
		"bad value":        "metric_a not_a_number\n",
		"unclosed labels":  "metric_a{le=\"0.1 1\n",
		"unquoted label":   "metric_a{le=0.1} 1\n",
		"bad type":         "# TYPE metric_a countr\nmetric_a 1\n",
		"duplicate type":   "# TYPE m_a counter\n# TYPE m_a counter\nm_a 1\n",
		"type after data":  "m_a 1\n# TYPE m_a counter\n",
		"empty exposition": "\n",
		"trailing junk":    "metric_a 1 12345 extra\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	good := "# HELP m_a help text\n# TYPE m_a counter\nm_a 12\nm_b{x=\"y\",z=\"w\"} 1.5 1700000000\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := &SLOHistogram{}
	m.NewHistogramFunc("h_seconds", "h", h.Snapshot)
	for _, d := range []time.Duration{50 * time.Microsecond, 64 * time.Microsecond, 300 * time.Millisecond, 100 * time.Second} {
		h.Observe(d, -1, false)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 50µs and 64µs both land in the le="6.4e-05" bucket (bounds are
	// inclusive powers of two of a microsecond, cumulative); 100s overflows.
	if !strings.Contains(out, `h_seconds_bucket{le="6.4e-05"} 2`) {
		t.Fatalf("bucket boundaries wrong:\n%s", out)
	}
	if !strings.Contains(out, `h_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
