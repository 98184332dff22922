package obs

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RuntimeSample is one reading of process health: goroutines, heap, RSS, GC
// work, and the engine's pool efficiency. pc.runtime serves one row per
// retained sample.
type RuntimeSample struct {
	TSMicros       int64 // wall-clock sample time, µs since the Unix epoch
	Goroutines     int64 // live goroutines
	HeapAllocBytes int64 // bytes of allocated heap objects
	HeapSysBytes   int64 // heap memory obtained from the OS
	RSSBytes       int64 // resident set size (0 where /proc is unavailable)
	GCCycles       int64 // completed GC cycles
	GCPauseNs      int64 // cumulative stop-the-world pause time
	PoolGets       int64 // scan-scratch pool acquisitions
	PoolNews       int64 // acquisitions that had to allocate a fresh scratch
}

// DefaultRuntimeInterval is the sampling cadence StartRuntimeCollector uses
// when given a non-positive interval.
const DefaultRuntimeInterval = time.Second

// defaultRuntimeCapacity bounds the sample ring: an hour of history at the
// default cadence.
const defaultRuntimeCapacity = 3600

// RuntimeCollector samples process health on a ticker into a bounded ring.
// A nil collector is valid and empty (never started).
type RuntimeCollector struct {
	mu   sync.Mutex
	ring []RuntimeSample // guarded by mu; fixed capacity
	next int             // guarded by mu
	n    int             // guarded by mu

	// pools reads the engine's scratch-pool counters, nil when not wired.
	pools func() (gets, news int64) // immutable after construction

	// sent, when wired, evaluates the leak sentinels against the freshest
	// sample window after every SampleNow. Nil checks nothing.
	sent *Sentinels // immutable after construction

	cancel context.CancelFunc // immutable after StartRuntimeCollector
	done   chan struct{}      // closed when the sampling goroutine exits
}

// StartRuntimeCollector begins sampling every interval (<= 0 selects
// DefaultRuntimeInterval) until Stop. pools may be nil; when set it supplies
// the scan-scratch pool counters recorded with each sample. sent may be nil;
// when set, the freshest window is handed to sent.Evaluate after every
// retained sample, so the watchdogs run on the sampling cadence without their
// own goroutine.
func StartRuntimeCollector(interval time.Duration, pools func() (gets, news int64), sent *Sentinels) *RuntimeCollector {
	if interval <= 0 {
		interval = DefaultRuntimeInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &RuntimeCollector{
		ring:   make([]RuntimeSample, defaultRuntimeCapacity),
		pools:  pools,
		sent:   sent,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	c.SampleNow() // the first row is available immediately
	go c.run(ctx, interval)
	return c
}

// run samples until the collector's context is cancelled (Stop).
func (c *RuntimeCollector) run(ctx context.Context, interval time.Duration) {
	defer close(c.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.SampleNow()
		}
	}
}

// Stop terminates the sampling goroutine and waits for it to exit. Safe to
// call more than once; a nil collector is a no-op.
func (c *RuntimeCollector) Stop() {
	if c == nil {
		return
	}
	c.cancel()
	<-c.done
}

// ReadRuntimeSample computes one health reading without retaining it
// anywhere. pools may be nil.
func ReadRuntimeSample(pools func() (gets, news int64)) RuntimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeSample{
		TSMicros:       time.Now().UnixMicro(),
		Goroutines:     int64(runtime.NumGoroutine()),
		HeapAllocBytes: int64(ms.HeapAlloc),
		HeapSysBytes:   int64(ms.HeapSys),
		RSSBytes:       readRSSBytes(),
		GCCycles:       int64(ms.NumGC),
		GCPauseNs:      int64(ms.PauseTotalNs),
	}
	if pools != nil {
		s.PoolGets, s.PoolNews = pools()
	}
	return s
}

// SampleNow takes one sample synchronously, retains it, and returns it
// (tests and the ticker share this path).
func (c *RuntimeCollector) SampleNow() RuntimeSample {
	if c == nil {
		return RuntimeSample{}
	}
	s := ReadRuntimeSample(c.pools)
	c.mu.Lock()
	c.ring[c.next] = s
	c.next = (c.next + 1) % len(c.ring)
	if c.n < len(c.ring) {
		c.n++
	}
	var win []RuntimeSample
	if c.sent != nil {
		// Gather the freshest sentinel window (oldest first) while the lock is
		// held; Evaluate runs outside it — it takes the sentinels' own lock and
		// may emit log lines.
		w := c.sent.Window()
		if w > c.n {
			w = c.n
		}
		win = make([]RuntimeSample, 0, w)
		start := c.next - w
		if start < 0 {
			start += len(c.ring)
		}
		for i := 0; i < w; i++ {
			win = append(win, c.ring[(start+i)%len(c.ring)])
		}
	}
	c.mu.Unlock()
	if c.sent != nil {
		c.sent.Evaluate(win)
	}
	return s
}

// Samples returns the retained samples, oldest first.
func (c *RuntimeCollector) Samples() []RuntimeSample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RuntimeSample, 0, c.n)
	start := c.next - c.n
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < c.n; i++ {
		out = append(out, c.ring[(start+i)%len(c.ring)])
	}
	return out
}

// Last returns the most recent sample (zero value when none).
func (c *RuntimeCollector) Last() RuntimeSample {
	if c == nil {
		return RuntimeSample{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return RuntimeSample{}
	}
	i := c.next - 1
	if i < 0 {
		i += len(c.ring)
	}
	return c.ring[i]
}

// RegisterSamplerMetrics registers the runtime-health instruments against
// whichever collector source returns at scrape time (nil reads as zeros), so
// a registry outlives sampler restarts. The gauges read the latest retained
// sample, so a scrape never triggers a ReadMemStats of its own.
func RegisterSamplerMetrics(m *Metrics, source func() *RuntimeCollector) {
	m.NewGauge("predcache_runtime_goroutines", "Live goroutines at the last runtime sample.", func() float64 {
		return float64(source().Last().Goroutines)
	})
	m.NewGauge("predcache_runtime_heap_alloc_bytes", "Heap bytes at the last runtime sample.", func() float64 {
		return float64(source().Last().HeapAllocBytes)
	})
	m.NewGauge("predcache_runtime_rss_bytes", "Resident set size at the last runtime sample.", func() float64 {
		return float64(source().Last().RSSBytes)
	})
	m.NewCounterFunc("predcache_runtime_gc_pause_ns_total", "Cumulative GC stop-the-world pause time.", func() int64 {
		return source().Last().GCPauseNs
	})
	m.NewCounterFunc("predcache_runtime_pool_gets_total", "Scan-scratch pool acquisitions at the last sample.", func() int64 {
		return source().Last().PoolGets
	})
	m.NewCounterFunc("predcache_runtime_pool_news_total", "Scan-scratch acquisitions that allocated a fresh scratch.", func() int64 {
		return source().Last().PoolNews
	})
}

// readRSSBytes reads the resident set size from /proc/self/statm (field 2,
// in pages). Returns 0 on platforms or sandboxes without procfs — the
// column is then 0 rather than the collector failing.
func readRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
