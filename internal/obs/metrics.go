package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// HistSnapshot is a point-in-time histogram state for the registry's
// pull-style histograms (NewHistogramFunc; SLOHistogram.Snapshot produces
// one): per-bucket counts (not cumulative; the last entry is the +Inf
// overflow), the upper bounds, and the running sum/count. The exposition
// renders cumulative buckets (Prometheus semantics).
type HistSnapshot struct {
	Bounds []float64 // ascending upper bounds, +Inf implicit
	Counts []uint64  // len(Bounds)+1 per-bucket counts, last is overflow
	Sum    float64
	N      uint64
}

// metric is one registered metric of any kind.
type metric struct {
	name, help, typ string
	counter         *Counter
	counterFn       func() int64
	gaugeFn         func() float64
	histFn          func() HistSnapshot
}

// Metrics is a registry of named metrics. Registration methods are
// idempotent: re-registering a name of the same kind returns the existing
// metric, so layered components (DB facade, cache, runtime) can share a
// registry without coordination.
type Metrics struct {
	mu    sync.Mutex
	order []string           // guarded by mu; registration order
	byNam map[string]*metric // guarded by mu
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{byNam: make(map[string]*metric)}
}

// pclint:held — callers hold m.mu.
func (m *Metrics) registerLocked(name string, mt *metric) *metric {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if old, ok := m.byNam[name]; ok {
		if old.typ != mt.typ {
			panic("obs: metric " + name + " re-registered as " + mt.typ + ", was " + old.typ)
		}
		return old
	}
	m.byNam[name] = mt
	m.order = append(m.order, name)
	return mt
}

// NewCounter registers (or returns the existing) push-style counter.
func (m *Metrics) NewCounter(name, help string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	mt := m.registerLocked(name, &metric{name: name, help: help, typ: "counter", counter: &Counter{}})
	return mt.counter
}

// NewCounterFunc registers a pull-style counter: fn is read at scrape time.
// Use for components that already maintain monotone counters internally
// (the predicate cache's Stats), so the hot path pays nothing.
func (m *Metrics) NewCounterFunc(name, help string, fn func() int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registerLocked(name, &metric{name: name, help: help, typ: "counter", counterFn: fn})
}

// NewGauge registers a pull-style gauge read at scrape time.
func (m *Metrics) NewGauge(name, help string, fn func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registerLocked(name, &metric{name: name, help: help, typ: "gauge", gaugeFn: fn})
}

// NewHistogramFunc registers a histogram read through fn at scrape time.
// SLOHistogram is the one histogram implementation; it keeps its own
// buckets, so observations never pay registry overhead.
func (m *Metrics) NewHistogramFunc(name, help string, fn func() HistSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registerLocked(name, &metric{name: name, help: help, typ: "histogram", histFn: fn})
}

// snapshotLocked returns the metrics in registration order.
//
// pclint:held — callers hold m.mu.
func (m *Metrics) snapshotLocked() []*metric {
	out := make([]*metric, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.byNam[name])
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	metrics := m.snapshotLocked()
	m.mu.Unlock()
	for _, mt := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", mt.name, escapeHelp(mt.help), mt.name, mt.typ); err != nil {
			return fmt.Errorf("obs: write exposition: %w", err)
		}
		var err error
		switch {
		case mt.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", mt.name, mt.counter.Value())
		case mt.counterFn != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", mt.name, mt.counterFn())
		case mt.gaugeFn != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", mt.name, formatFloat(mt.gaugeFn()))
		case mt.histFn != nil:
			err = writeHistogram(w, mt.name, mt.histFn())
		}
		if err != nil {
			return fmt.Errorf("obs: write exposition: %w", err)
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s HistSnapshot) error {
	cum := uint64(0)
	for i, b := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Bounds)]
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, cum, name, formatFloat(s.Sum), name, s.N)
	return err
}

// MetricSample is one flattened sample of the registry: counters and gauges
// map to one sample each, histograms to a <name>_count and a <name>_sum
// sample (per-bucket counts stay in the Prometheus exposition; the flat view
// backs the pc.metrics system table, which wants one value per row).
type MetricSample struct {
	Name  string
	Type  string // "counter", "gauge" or "histogram"
	Help  string
	Value float64
}

// Samples returns the registry flattened to (name, type, help, value) rows
// in registration order, reading pull-style metrics at call time.
func (m *Metrics) Samples() []MetricSample {
	m.mu.Lock()
	metrics := m.snapshotLocked()
	m.mu.Unlock()
	out := make([]MetricSample, 0, len(metrics))
	for _, mt := range metrics {
		switch {
		case mt.counter != nil:
			out = append(out, MetricSample{mt.name, mt.typ, mt.help, float64(mt.counter.Value())})
		case mt.counterFn != nil:
			out = append(out, MetricSample{mt.name, mt.typ, mt.help, float64(mt.counterFn())})
		case mt.gaugeFn != nil:
			out = append(out, MetricSample{mt.name, mt.typ, mt.help, mt.gaugeFn()})
		case mt.histFn != nil:
			s := mt.histFn()
			out = append(out,
				MetricSample{mt.name + "_count", mt.typ, mt.help, float64(s.N)},
				MetricSample{mt.name + "_sum", mt.typ, mt.help, s.Sum})
		}
	}
	return out
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
